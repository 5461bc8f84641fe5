package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what one request reports back to the load generator. end is
// taken by the request itself, right after the call into the program
// returns, so the comparison with the expected answer is not timed.
type opResult struct {
	end               time.Time
	attempted, failed int
}

// opFunc issues request number seq (0-based, unique per loop) from client c
// and blocks until it is answered.
type opFunc func(c, seq int) opResult

// loopSpec says how load is offered: clients > 0 is a closed loop of that
// many callers; rate > 0 is an open loop on a constant-rate schedule whose
// first arrival is phase after the start, whose requests are timed from the
// moment they were due, and whose operations count only when answered within
// limit.
type loopSpec struct {
	clients int
	rate    float64
	phase   time.Duration
	limit   time.Duration
}

// measure warms the program for warm, then measures it for dur. edge, when
// set, is called at the window's start and end (for counters that must be
// read at the same instants as the clock). Requests in flight at the end are
// waited for; none is issued after it.
func measure(spec loopSpec, warm, dur time.Duration, op opFunc, edge func()) window {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
		stop    atomic.Bool
		next    atomic.Int64
	)
	record := func(local []sample) {
		mu.Lock()
		samples = append(samples, local...)
		mu.Unlock()
	}
	t0 := time.Now()
	if spec.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gap := time.Duration(float64(time.Second) / spec.rate)
			for k := 0; ; k++ {
				due := t0.Add(spec.phase + time.Duration(k)*gap)
				time.Sleep(time.Until(due))
				if stop.Load() {
					return
				}
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					issued := time.Now()
					r := op(0, k)
					ok := r.attempted - r.failed
					if spec.limit > 0 && r.end.Sub(due) > spec.limit {
						ok = 0
					}
					record([]sample{{start: due, end: r.end, late: issued.Sub(due),
						attempted: r.attempted, ok: ok, failed: r.failed}})
				}(k)
			}
		}()
	}
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			for !stop.Load() {
				seq := int(next.Add(1) - 1)
				start := time.Now()
				r := op(c, seq)
				local = append(local, sample{start: start, end: r.end,
					attempted: r.attempted, ok: r.attempted - r.failed, failed: r.failed})
			}
			record(local)
		}(c)
	}

	var m0, m1 runtime.MemStats
	time.Sleep(warm)
	runtime.ReadMemStats(&m0)
	if edge != nil {
		edge()
	}
	w := window{from: time.Now()}
	time.Sleep(dur)
	w.to = time.Now()
	if edge != nil {
		edge()
	}
	runtime.ReadMemStats(&m1)
	stop.Store(true)
	wg.Wait()
	w.samples, w.allocBytes = samples, m1.TotalAlloc-m0.TotalAlloc
	return w
}
