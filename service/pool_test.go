package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestPoolOverlapsBatches: a pool keeps two batches inside RunBatch at once
// while a third waits in its queue. Abort leaves the running two alone; the
// queued one resolves ErrClosed as soon as a drain loop is free, and done
// closes only after both in-flight batches have returned, with no goroutine
// of the pool left behind.
func TestPoolOverlapsBatches(t *testing.T) {
	key := testKey(t)
	b := &gatedBackend{stubBackend: stubBackend{name: "gated", weight: 1000, cap: 64},
		step: make(chan struct{}), seen: map[string]int{}}
	defer b.open() // a failed test must not leave the loops at the gate
	before := runtime.NumGoroutine()

	p := newPool(0, 0, b)
	returned := make(chan struct{})
	go func() {
		p.run(context.Background(), key, "k")
		close(returned)
	}()
	futs := make([]*Future, poolInFlight+1)
	for i := range futs {
		r := &request{msg: memberMsg("overlap", i), fut: newFuture()}
		futs[i] = r.fut
		p.outstanding.Add(1)
		p.enqueue(&batchJob{kind: KindSign, reqs: []*request{r}})
	}
	waitFor(t, 5*time.Second, func() bool { return b.entered.Load() == poolInFlight })
	time.Sleep(20 * time.Millisecond) // room for a third batch to start, were it allowed to
	if got := b.entered.Load(); got != poolInFlight {
		t.Fatalf("%d batches inside RunBatch, want %d", got, poolInFlight)
	}
	p.mu.Lock()
	queued := len(p.queue)
	p.mu.Unlock()
	if queued != 1 {
		t.Fatalf("%d batches queued beside the in-flight ones, want 1", queued)
	}

	p.abort()
	b.step <- struct{}{} // one in-flight batch completes; its loop abandons the queue
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := futs[poolInFlight].Wait(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued batch after abort: err = %v, want ErrClosed", err)
	}
	select {
	case <-p.done:
		t.Fatal("done closed while a batch was still inside RunBatch")
	case <-time.After(20 * time.Millisecond):
	}
	b.step <- struct{}{}
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("done did not close after both in-flight batches returned")
	}
	<-returned
	for i, fut := range futs[:poolInFlight] {
		if res, err := fut.Wait(ctx); err != nil || len(res.Sig) == 0 {
			t.Fatalf("in-flight batch %d: %v (signature %d bytes)", i, err, len(res.Sig))
		}
	}
	if n := p.outstanding.Load(); n != 0 {
		t.Fatalf("outstanding = %d after the pool exited, want 0", n)
	}
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before })
}
