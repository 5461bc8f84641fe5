package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herosign/internal/spx/params"
)

// collectFlush records flushed batches for assertions.
type collectFlush struct {
	mu      sync.Mutex
	batches [][]*request
}

func (c *collectFlush) fn(kind Kind, reqs []*request) {
	c.mu.Lock()
	c.batches = append(c.batches, reqs)
	c.mu.Unlock()
	for _, r := range reqs {
		r.fut.resolve(Result{Batch: len(reqs)}, nil)
	}
}

func (c *collectFlush) snapshot() [][]*request {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]*request(nil), c.batches...)
}

func newReq() *request { return &request{msg: []byte("m"), fut: newFuture()} }

func TestBatcherDeadlineFlushSingleRequest(t *testing.T) {
	var c collectFlush
	b := newBatcher(KindSign, 64, 5*time.Millisecond, c.fn)
	r := newReq()
	if err := b.submit(r); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.fut.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("future did not resolve from the deadline flush")
	}
	got := c.snapshot()
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("want one flush of one request, got %d flushes", len(got))
	}
	if r.fut.res.Batch != 1 {
		t.Fatalf("batch size = %d, want 1", r.fut.res.Batch)
	}
}

func TestBatcherSizeFlushBeatsTimer(t *testing.T) {
	var c collectFlush
	// Long deadline: only the size threshold can flush within the test.
	b := newBatcher(KindSign, 4, 250*time.Millisecond, c.fn)
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = newReq()
		if err := b.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Size-triggered flush is synchronous with the 4th submit.
	got := c.snapshot()
	if len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("want one size-triggered flush of 4, got %v flushes", len(got))
	}
	// The armed timer must have been cancelled or become a stale no-op:
	// no second flush after the deadline passes.
	time.Sleep(350 * time.Millisecond)
	if got := c.snapshot(); len(got) != 1 {
		t.Fatalf("stale timer double-flushed: %d flushes", len(got))
	}
	if b.depth() != 0 {
		t.Fatalf("depth = %d after flush, want 0", b.depth())
	}
}

// TestBatcherFlushRace hammers a tiny batcher with concurrent submitters
// while the deadline timer races the size trigger; every future must
// resolve exactly once and batches must never exceed maxBatch. Run with
// -race to exercise the locking.
func TestBatcherFlushRace(t *testing.T) {
	var flushed atomic.Int64
	var maxSeen atomic.Int64
	flush := func(kind Kind, reqs []*request) {
		flushed.Add(int64(len(reqs)))
		if n := int64(len(reqs)); n > maxSeen.Load() {
			maxSeen.Store(n)
		}
		for _, r := range reqs {
			r.fut.resolve(Result{}, nil)
		}
	}
	b := newBatcher(KindSign, 3, 100*time.Microsecond, flush)
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	futs := make(chan *Future, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := newReq()
				if err := b.submit(r); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				futs <- r.fut
				if i%7 == 0 {
					time.Sleep(200 * time.Microsecond) // let the timer win sometimes
				}
			}
		}()
	}
	wg.Wait()
	close(futs)
	deadline := time.After(5 * time.Second)
	for fut := range futs {
		select {
		case <-fut.Done():
		case <-deadline:
			t.Fatal("future never resolved")
		}
	}
	// Any still-pending tail flushes via close.
	b.close()
	if flushed.Load() != goroutines*per {
		t.Fatalf("flushed %d requests, want %d", flushed.Load(), goroutines*per)
	}
	if maxSeen.Load() > 3 {
		t.Fatalf("a batch exceeded maxBatch: %d", maxSeen.Load())
	}
}

func TestBatcherSubmitAfterClose(t *testing.T) {
	var c collectFlush
	b := newBatcher(KindSign, 4, time.Millisecond, c.fn)
	r := newReq()
	if err := b.submit(r); err != nil {
		t.Fatal(err)
	}
	b.close()
	// close flushes the pending request.
	select {
	case <-r.fut.Done():
	case <-time.After(time.Second):
		t.Fatal("close did not flush the pending request")
	}
	err := b.submit(newReq())
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	b.close() // idempotent
}

// recordingBackend is a stubBackend that records the messages of every
// batch it runs.
type recordingBackend struct {
	stubBackend
	mu      sync.Mutex
	batches [][]string
}

func (b *recordingBackend) RunBatch(ctx context.Context, key *PrivateKey, job *Job) (*BatchOutput, error) {
	msgs := make([]string, len(job.Msgs))
	for i, m := range job.Msgs {
		msgs[i] = string(m)
	}
	b.mu.Lock()
	b.batches = append(b.batches, msgs)
	b.mu.Unlock()
	return b.stubBackend.RunBatch(ctx, key, job)
}

// TestSubmitBatchArrivesWhole: with a flush interval of 1 ns the timer
// fires while a batch is still being queued, yet every SubmitBatch call of
// at most maxBatch members must reach the backend inside one batch.
func TestSubmitBatchArrivesWhole(t *testing.T) {
	const maxBatch, calls, submitters = 16, 200, 4
	rb := &recordingBackend{stubBackend: stubBackend{name: "rec", weight: 1000, cap: 4096}}
	svc, err := New(WithParams(params.SPHINCSPlus128f), WithKey(testKey(t)), WithBackends(rb),
		WithMaxBatch(maxBatch), WithFlushDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := g; c < calls; c += submitters {
				msgs := make([][]byte, 1+c%maxBatch)
				for i := range msgs {
					msgs[i] = []byte(fmt.Sprintf("call-%d/%d", c, i))
				}
				futs, err := svc.SubmitBatch(KindSign, "", msgs, nil, nil)
				if err != nil {
					t.Errorf("call %d: %v", c, err)
					return
				}
				for _, f := range futs {
					if _, err := f.Wait(context.Background()); err != nil {
						t.Errorf("call %d: %v", c, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	rb.mu.Lock()
	defer rb.mu.Unlock()
	batchOf := map[int]int{} // call -> index of the backend batch carrying it
	members := 0
	for bi, batch := range rb.batches {
		for _, m := range batch {
			var c, i int
			if _, err := fmt.Sscanf(m, "call-%d/%d", &c, &i); err != nil {
				t.Fatalf("unexpected message %q", m)
			}
			if prev, ok := batchOf[c]; ok && prev != bi {
				t.Fatalf("call %d (%d members) split across backend batches %d and %d", c, 1+c%maxBatch, prev, bi)
			}
			batchOf[c] = bi
			members++
		}
	}
	want := 0
	for c := 0; c < calls; c++ {
		want += 1 + c%maxBatch
	}
	if len(batchOf) != calls || members != want {
		t.Fatalf("backend saw %d calls / %d members, want %d / %d", len(batchOf), members, calls, want)
	}
}

// TestBatcherSubmitAllChunks: a call that would overflow the pending batch
// flushes that batch first, and a call longer than maxBatch flushes in full
// maxBatch chunks with the remainder left pending.
func TestBatcherSubmitAllChunks(t *testing.T) {
	var c collectFlush
	b := newBatcher(KindSign, 4, time.Hour, c.fn)
	reqs := func(n int) []*request {
		rs := make([]*request, n)
		for i := range rs {
			rs[i] = newReq()
		}
		return rs
	}
	for _, n := range []int{3, 2, 9} {
		if err := b.submitAll(reqs(n)); err != nil {
			t.Fatal(err)
		}
	}
	var sizes []int
	for _, batch := range c.snapshot() {
		sizes = append(sizes, len(batch))
	}
	// 3 pending; 2 would overflow it -> flush 3, pend 2; 9 -> flush 2, then
	// 4 and 4, pend 1.
	if fmt.Sprint(sizes) != "[3 2 4 4]" || b.depth() != 1 {
		t.Fatalf("flushed %v with %d pending, want [3 2 4 4] with 1", sizes, b.depth())
	}
	b.close()
	if err := b.submitAll(reqs(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submitAll after close: %v, want ErrClosed", err)
	}
}
