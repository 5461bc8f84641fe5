package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// batchJob is one flushed batch on its way through the router.
type batchJob struct {
	kind Kind
	reqs []*request
}

// histBuckets are the upper bounds of the batch-size histogram
// (1, 2, 4, …, 64, +Inf).
var histBuckets = []int{1, 2, 4, 8, 16, 32, 64}

func histIdx(n int) int {
	for i, le := range histBuckets {
		if n <= le {
			return i
		}
	}
	return len(histBuckets)
}

// poolInFlight is how many batches a pool keeps executing on its backend
// at once. Two is double buffering: the next batch starts while the current
// one finishes, so a fork-join backend's idle tail at a batch boundary is
// filled instead of left waiting on the queue. A third buffer measured no
// better than two.
const poolInFlight = 2

// pool owns one backend's submission queue. poolInFlight goroutines drain
// the queue — the backend-level analogue of the per-block workers under a
// super-level scheduler — while the shard router above picks which pool
// each flushed batch lands on.
type pool struct {
	id      int // global worker index, stable across shards
	shardID int
	backend Backend

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*batchJob
	closing  bool
	aborting bool

	// done closes when every drain loop has exited — how a dynamic-membership
	// removal waits for the pool's queue to drain and its in-flight batches
	// to complete.
	done chan struct{}

	// outstanding counts messages queued or executing on this backend; the
	// router's weighted least-outstanding-work dispatch reads it lock-free.
	outstanding atomic.Int64

	statsMu sync.Mutex
	stats   poolStats
}

// poolStats accumulates per-backend counters. BusyUs fields integrate the
// backend's reported execution time: modeled device time for simulated
// backends, measured wall time for CPU backends.
type poolStats struct {
	Batches          int64
	Messages         int64
	SignMsgs         int64
	VerifyMsgs       int64
	KeyGenMsgs       int64
	SignBusyUs       float64
	VerifyBusyUs     float64
	KeyGenBusyUs     float64
	LaunchOverheadUs float64
	Hist             []int64
}

func newPool(id, shardID int, b Backend) *pool {
	p := &pool{id: id, shardID: shardID, backend: b, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.stats.Hist = make([]int64, len(histBuckets)+1)
	return p
}

func (p *pool) enqueue(j *batchJob) {
	p.mu.Lock()
	p.queue = append(p.queue, j)
	p.cond.Signal()
	p.mu.Unlock()
}

// beginClose asks the drain loops to exit once the queue is empty.
func (p *pool) beginClose() {
	p.mu.Lock()
	p.closing = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// abort resolves every still-queued batch ErrClosed at once and makes the
// drain loops exit instead of taking more work; the batches already running
// complete. Call it after beginClose, once nothing more is enqueued.
func (p *pool) abort() {
	p.mu.Lock()
	p.aborting = true
	abandoned := p.queue
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, j := range abandoned {
		for _, r := range j.reqs {
			r.resolve(Result{}, ErrClosed)
		}
		p.outstanding.Add(-int64(len(j.reqs)))
	}
}

// run drains the queue with poolInFlight loops until closing empties it
// or abort abandons it; it returns, closing done, once every loop has.
func (p *pool) run(ctx context.Context, key *PrivateKey, keyID string) {
	defer close(p.done)
	var wg sync.WaitGroup
	for range poolInFlight - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.drain(ctx, key, keyID)
		}()
	}
	p.drain(ctx, key, keyID)
	wg.Wait()
}

// drain is one of the pool's loops: take the oldest queued batch, execute
// it, repeat.
func (p *pool) drain(ctx context.Context, key *PrivateKey, keyID string) {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closing && !p.aborting {
			p.cond.Wait()
		}
		if p.aborting || (len(p.queue) == 0 && p.closing) {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		p.runBatch(ctx, key, keyID, j)
		p.outstanding.Add(-int64(len(j.reqs)))
	}
}

// runBatch validates the batch per message, executes the survivors on the
// backend and resolves every future. Per-message validation errors resolve
// individually; a backend error resolves the whole batch with that error.
func (p *pool) runBatch(ctx context.Context, key *PrivateKey, keyID string, j *batchJob) {
	live := p.validate(key, j)
	if len(live) == 0 {
		return
	}
	job := &Job{Kind: j.kind}
	switch j.kind {
	case KindSign:
		job.Msgs = make([][]byte, len(live))
		for i, r := range live {
			job.Msgs[i] = r.msg
		}
	case KindVerify:
		job.Msgs = make([][]byte, len(live))
		job.Sigs = make([][]byte, len(live))
		for i, r := range live {
			job.Msgs[i], job.Sigs[i] = r.msg, r.sig
		}
	case KindKeyGen:
		job.Seeds = make([]SeedTriple, len(live))
		for i, r := range live {
			job.Seeds[i] = r.seed
		}
	default:
		for _, r := range live {
			r.resolve(Result{}, fmt.Errorf("service: unknown job kind %d", j.kind))
		}
		return
	}
	fillScheduling(job, live)
	out, err := p.backend.RunBatch(ctx, key, job)
	if err != nil {
		if ctx.Err() != nil {
			err = ErrClosed
		}
		for _, r := range live {
			r.resolve(Result{}, err)
		}
		return
	}
	p.record(j.kind, len(live), out.BusyUs, out.LaunchOverheadUs)
	meta := Result{Batch: len(live), Dev: p.backend.Name(), KeyID: keyID, Shard: p.shardID}
	for i, r := range live {
		res := meta
		switch j.kind {
		case KindSign:
			res.Sig = out.Sigs[i]
		case KindVerify:
			res.Valid = out.OK[i]
		case KindKeyGen:
			res.Key = out.Keys[i]
		}
		r.resolve(res, nil)
	}
}

// fillScheduling attaches the batch's advisory deadline/tenant metadata so
// proxying backends (service/remote) can forward it to a leaf's scheduler.
// Deadlines are snapshotted as remaining milliseconds at dispatch (floored
// at 1ms: the work was admitted, so a leaf should not pre-reject it over
// transit time). Both slices stay nil when no message needs them.
func fillScheduling(job *Job, live []*request) {
	now := time.Now()
	for i, r := range live {
		if !r.deadline.IsZero() {
			if job.DeadlinesMs == nil {
				job.DeadlinesMs = make([]int64, len(live))
			}
			ms := int64(r.deadline.Sub(now) / time.Millisecond)
			if ms < 1 {
				ms = 1
			}
			job.DeadlinesMs[i] = ms
		}
		if r.tenant != nil && r.tenant.name != DefaultTenant {
			if job.Tenants == nil {
				job.Tenants = make([]string, len(live))
			}
			job.Tenants[i] = r.tenant.name
		}
	}
}

// validate resolves malformed requests individually and returns the rest.
// A request whose client deadline passed while it waited in the queue is
// dropped here with ErrDeadlineExceeded — after admission but before any
// backend work is spent on it.
func (p *pool) validate(key *PrivateKey, j *batchJob) []*request {
	n := key.Params.N
	now := time.Now()
	live := j.reqs[:0:0]
	for _, r := range j.reqs {
		if !r.deadline.IsZero() && !r.deadline.After(now) {
			r.resolve(Result{}, ErrDeadlineExceeded)
			continue
		}
		switch j.kind {
		case KindSign:
			if len(r.msg) == 0 {
				r.resolve(Result{}, ErrEmptyMessage)
				continue
			}
		case KindVerify:
			if len(r.sig) != key.Params.SigBytes {
				r.resolve(Result{}, fmt.Errorf("%w: got %d bytes, want %d",
					ErrSignatureLength, len(r.sig), key.Params.SigBytes))
				continue
			}
		case KindKeyGen:
			if len(r.seed.SKSeed) != n || len(r.seed.SKPRF) != n || len(r.seed.PKSeed) != n {
				r.resolve(Result{}, fmt.Errorf("%w: components must be %d bytes", ErrSeedLength, n))
				continue
			}
		}
		live = append(live, r)
	}
	return live
}

// record folds one executed batch into the pool's stats.
func (p *pool) record(kind Kind, n int, busyUs, launchUs float64) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	p.stats.Batches++
	p.stats.Messages += int64(n)
	p.stats.LaunchOverheadUs += launchUs
	p.stats.Hist[histIdx(n)]++
	switch kind {
	case KindSign:
		p.stats.SignMsgs += int64(n)
		p.stats.SignBusyUs += busyUs
	case KindVerify:
		p.stats.VerifyMsgs += int64(n)
		p.stats.VerifyBusyUs += busyUs
	case KindKeyGen:
		p.stats.KeyGenMsgs += int64(n)
		p.stats.KeyGenBusyUs += busyUs
	}
}

func (p *pool) snapshot() poolStats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	s := p.stats
	s.Hist = append([]int64(nil), p.stats.Hist...)
	return s
}
