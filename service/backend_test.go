package service

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"herosign/internal/core"
	"herosign/internal/gpu/device"
)

// TestBusyClockCharges: serial batches are charged their wall time, and
// overlapping ones split the shared stretch so their charges sum to the
// time the executor was busy — a batch wholly inside time already charged
// costs nothing.
func TestBusyClockCharges(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var c BusyClock
	for _, tc := range []struct {
		start, end int
		want       time.Duration
	}{
		{0, 100, 100 * time.Millisecond},   // serial
		{100, 200, 100 * time.Millisecond}, // serial, back to back
		{250, 450, 200 * time.Millisecond}, // after an idle gap
		{350, 550, 100 * time.Millisecond}, // overlaps the previous from 350 to 450
		{400, 500, 0},                      // inside time already charged
	} {
		if got := c.Charge(at(tc.start), at(tc.end)); got != tc.want {
			t.Fatalf("batch %d..%d ms charged %v, want %v", tc.start, tc.end, got, tc.want)
		}
	}
}

// TestWeightMeterOverlappingBatches: a backend whose cores sign 8 messages
// per 100 ms runs 80 sigs/s whether it takes its batches one at a time or
// two at once (each then taking 200 ms of wall time). Charged through a
// BusyClock, overlapping batches keep Weight() at that real rate; taking
// each batch's wall time at face value would read half of it.
func TestWeightMeterOverlappingBatches(t *testing.T) {
	const n, rate = 8, 80.0
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		name  string
		start func(i int) int // ms; every batch runs 200 ms
	}{
		{"staggered", func(i int) int { return 100 * i }},      // a new batch each time one ends
		{"in pairs", func(i int) int { return 200 * (i / 2) }}, // two batches start and end together
	} {
		t.Run(tc.name, func(t *testing.T) {
			var overlapped, naive weightMeter
			overlapped.seed(rate)
			naive.seed(rate)
			var c BusyClock
			for i := 0; i < 40; i++ {
				start, end := at(tc.start(i)), at(tc.start(i)+200)
				effUs := float64(c.Charge(start, end).Microseconds())
				overlapped.observe(n, 200e3, effUs)
				naive.observe(n, 200e3, 200e3)
				if w := overlapped.get(); w < 0.75*rate || w > 1.25*rate {
					t.Fatalf("batch %d: Weight() = %.1f sigs/s, want near %.0f", i, w, rate)
				}
			}
			if w := overlapped.get(); math.Abs(w-rate) > 0.02*rate {
				t.Fatalf("settled Weight() = %.2f sigs/s, want %.0f", w, rate)
			}
			if w := naive.get(); math.Abs(w-rate/2) > 0.02*rate {
				t.Fatalf("wall-time Weight() = %.2f sigs/s; the overlap this test builds should halve it", w)
			}
		})
	}
}

// TestWeightMeterSerialStep: a serial batch (effective time = wall time) is
// the plain EWMA step, 0.7·old + 0.3·observed.
func TestWeightMeterSerialStep(t *testing.T) {
	var m weightMeter
	m.observe(10, 100e3, 100e3) // first observation sets the estimate: 100 sigs/s
	if w := m.get(); w != 100 {
		t.Fatalf("first observation: %g sigs/s, want 100", w)
	}
	m.observe(10, 50e3, 50e3) // 200 sigs/s observed
	if w, want := m.get(), 0.7*100+0.3*200; math.Abs(w-want) > 1e-9 {
		t.Fatalf("serial step: %g sigs/s, want %g", w, want)
	}
}

// TestDeviceBackendRunsOneBatchAtATime: the pool keeps two batches in flight,
// but the modeled device executes one at a time — RunBatch never overlaps
// itself, whether driven by the pool's loops or by more callers at once.
func TestDeviceBackendRunsOneBatchAtATime(t *testing.T) {
	key := testKey(t)
	dev, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	b := newDeviceBackend(dev, core.Config{Features: core.AllFeatures()})
	if err := b.Warm(key); err != nil {
		t.Fatal(err)
	}
	var active, peak, runs atomic.Int32
	b.onRun = func() {
		n := active.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond) // the window a second caller would overlap
		runs.Add(1)
		active.Add(-1)
	}

	p := newPool(0, 0, b)
	go p.run(context.Background(), key, "k")
	const batches = 6
	futs := make([]*Future, batches)
	for i := range futs {
		r := &request{msg: memberMsg("device", i), sig: make([]byte, key.Params.SigBytes), fut: newFuture()}
		futs[i] = r.fut
		p.outstanding.Add(1)
		p.enqueue(&batchJob{kind: KindVerify, reqs: []*request{r}})
	}
	done := make(chan error, 2)
	for g := 0; g < 2; g++ { // direct callers beside the pool's two loops
		go func() {
			_, err := b.RunBatch(context.Background(), key, &Job{Kind: KindVerify,
				Msgs: [][]byte{[]byte("direct")}, Sigs: [][]byte{make([]byte, key.Params.SigBytes)}})
			done <- err
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.Valid {
			t.Fatalf("batch %d: an all-zero signature verified", i)
		}
	}
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatalf("direct RunBatch: %v", err)
		}
	}
	p.beginClose()
	<-p.done
	if got := runs.Load(); got != batches+2 {
		t.Fatalf("%d batches ran, want %d", got, batches+2)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d RunBatch calls inside the device at once, want 1", got)
	}
}
