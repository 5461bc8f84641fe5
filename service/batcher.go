package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"herosign/internal/core"
)

// Sentinel errors returned through futures or Submit.
var (
	// ErrClosed is returned by Submit calls after the service (or its
	// batcher) has been closed.
	ErrClosed = errors.New("service: closed")
	// ErrEmptyMessage is resolved into a sign future whose message was
	// empty; the rest of the coalesced batch proceeds.
	ErrEmptyMessage = errors.New("service: empty message")
	// ErrSignatureLength is resolved into a verify future whose signature
	// had the wrong length for the parameter set; the rest of the batch
	// proceeds.
	ErrSignatureLength = errors.New("service: signature has wrong length")
	// ErrSeedLength is resolved into a keygen future whose seed triple had
	// wrong-length components; the rest of the batch proceeds.
	ErrSeedLength = errors.New("service: seed triple has wrong lengths")
	// ErrUnknownKey is returned by Submit calls naming a key ID no shard
	// owns.
	ErrUnknownKey = errors.New("service: unknown key id")
	// ErrBatchTooLarge is returned by SubmitBatch when the batch could
	// never fit the admission caps even on an idle service — unlike
	// ErrOverloaded, retrying cannot help; split the batch instead.
	ErrBatchTooLarge = errors.New("service: batch exceeds admission capacity")
	// ErrDeadlineExceeded marks work whose client deadline cannot be (or was
	// not) met: an already-expired deadline is pre-rejected at admission
	// without consuming a queue slot, and a request whose deadline passes
	// while it waits for a flush is dropped before any signing work is spent
	// on it. The HTTP layer maps it to 504.
	ErrDeadlineExceeded = errors.New("service: client deadline exceeded")
)

// Kind identifies the job type a request carries through the batcher and
// fleet.
type Kind int

const (
	KindSign Kind = iota
	KindVerify
	KindKeyGen
)

// String names the kind for stats and logs.
func (k Kind) String() string {
	switch k {
	case KindSign:
		return "sign"
	case KindVerify:
		return "verify"
	case KindKeyGen:
		return "keygen"
	}
	return "unknown"
}

// Result is the resolved value of one request's future. Exactly the fields
// matching the request kind are populated.
type Result struct {
	Sig   []byte      // KindSign: the signature, byte-identical to Sign
	Valid bool        // KindVerify: the verdict
	Key   *PrivateKey // KindKeyGen: the derived key pair
	Batch int         // size of the coalesced batch this request rode in
	Dev   string      // backend that executed the batch
	KeyID string      // key domain the executing shard owns
	Shard int         // shard that executed the batch
}

// Future is the pending result of a Submit call. It resolves exactly once,
// either with a Result or with an error (which may be per-message: one
// failing request does not poison its batch-mates).
type Future struct {
	done chan struct{}
	res  Result
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (f *Future) resolve(res Result, err error) {
	f.res, f.err = res, err
	close(f.done)
}

// Wait blocks until the future resolves or the context is done. The
// underlying batch keeps executing even when the waiter gives up.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Done reports the future's channel for select-based waiters.
func (f *Future) Done() <-chan struct{} { return f.done }

// request is one submitted unit of work: a message to sign, a
// (message, signature) pair to verify, or a seed triple to expand into a
// key pair.
type request struct {
	msg  []byte
	sig  []byte
	seed core.SeedTriple
	fut  *Future
	// deadline is the client's completion deadline (zero = none). Admission
	// pre-rejects work that cannot make it, the batcher flushes early and
	// orders EDF around it, and the pool drops it unexecuted once expired.
	deadline time.Time
	// enqueued timestamps the submit for per-tenant latency accounting.
	enqueued time.Time
	// tenant is the per-API-key accounting state the request charges
	// (always set on admitted requests; the empty key maps to DefaultTenant).
	tenant *tenantState
	// release returns the request's admission slots; set when the request
	// is admitted, invoked exactly once via resolve.
	release func()
	// pinned marks members of an atomically admitted batch: the
	// drop-oldest-deadline policy never sheds them (evicting one member
	// would waste the whole batch's work).
	pinned bool
}

// resolve settles the request's future and returns its admission slots.
// Every admitted request must be settled through this method (not the
// future directly) so the admission gates drain.
func (r *request) resolve(res Result, err error) {
	r.fut.resolve(res, err)
	if r.release != nil {
		r.release()
	}
	if r.tenant != nil {
		r.tenant.complete(err, time.Since(r.enqueued))
	}
}

// unadmit refunds an admitted request that was never queued: its slots and
// the tenant accounting admission charged (resolve, which would settle
// them, will not run).
func (r *request) unadmit() {
	r.release()
	r.tenant.queued.Add(-1)
	r.tenant.admitted.Add(-1)
	if r.tenant.bucket != nil {
		r.tenant.bucket.refund(1)
	}
	r.release, r.tenant = nil, nil
}

// batcher coalesces individual requests of one kind into GPU-sized batches.
// A flush happens when the pending queue reaches maxBatch (size-triggered)
// or when the oldest pending request has waited deadline (timer-triggered),
// whichever comes first — so tail latency stays bounded under light load
// while batches approach maxBatch under heavy load.
//
// Requests carrying a client deadline make the flush earliest-deadline-
// first aware: the timer tightens so a tight deadline flushes its batch
// early (one flush interval before it expires, immediately when even that
// is too late), flushed batches are ordered EDF, and the drop-oldest-
// deadline shed policy evicts the entry with the truly nearest deadline
// instead of the oldest arrival.
type batcher struct {
	kind     Kind
	maxBatch int
	deadline time.Duration
	flush    func(kind Kind, reqs []*request)

	mu      sync.Mutex
	pending []*request // arrival order; sorted EDF at take
	gen     uint64     // increments at every flush; defeats stale timers
	timer   *time.Timer
	timerAt time.Time // when the armed timer fires (zero = none)
	closed  bool
}

func newBatcher(kind Kind, maxBatch int, deadline time.Duration, flush func(Kind, []*request)) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if deadline <= 0 {
		deadline = 2 * time.Millisecond
	}
	return &batcher{kind: kind, maxBatch: maxBatch, deadline: deadline, flush: flush}
}

// submit queues one request. The size threshold flushes inline (on the
// caller's goroutine); the deadline flushes from a timer goroutine. A
// request whose client deadline is tighter than the armed flush point
// re-arms the timer to fire one flush interval before that deadline — and
// when even an immediate flush is barely in time, flushes inline — so a
// deadline shorter than the coalescing interval still has a chance instead
// of expiring in the queue.
func (b *batcher) submit(r *request) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.pending = append(b.pending, r)
	if len(b.pending) >= b.maxBatch {
		batch := b.take()
		b.mu.Unlock()
		b.flush(b.kind, batch)
		return nil
	}
	now := time.Now()
	var fire time.Time
	if len(b.pending) == 1 {
		fire = now.Add(b.deadline)
	}
	if !r.deadline.IsZero() {
		// Reserve one flush interval as queue-and-execute margin.
		if d := r.deadline.Add(-b.deadline); fire.IsZero() && d.Before(b.timerAt) || !fire.IsZero() && d.Before(fire) {
			fire = d
		}
	}
	if !fire.IsZero() {
		if !fire.After(now) {
			batch := b.take()
			b.mu.Unlock()
			b.flush(b.kind, batch)
			return nil
		}
		gen := b.gen
		if b.timer != nil {
			b.timer.Stop()
		}
		b.timerAt = fire
		b.timer = time.AfterFunc(time.Until(fire), func() { b.deadlineFlush(gen) })
	}
	b.mu.Unlock()
	return nil
}

// take detaches the pending batch in EDF order (deadline-carrying requests
// first, nearest deadline leading; deadline-free requests follow in arrival
// order) and advances the generation. Caller holds b.mu.
func (b *batcher) take() []*request {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.timerAt = time.Time{}
	sortEDF(batch)
	return batch
}

// sortEDF orders a batch earliest-deadline-first: requests with deadlines
// lead (nearest first), requests without keep their arrival order behind
// them.
func sortEDF(reqs []*request) {
	sort.SliceStable(reqs, func(i, j int) bool {
		di, dj := reqs[i].deadline, reqs[j].deadline
		switch {
		case di.IsZero():
			return false
		case dj.IsZero():
			return true
		default:
			return di.Before(dj)
		}
	})
}

// deadlineFlush fires from the timer. If a size-triggered flush (or close)
// won the race, the generation has moved on and the timer is a no-op.
func (b *batcher) deadlineFlush(gen uint64) {
	b.mu.Lock()
	if b.closed || b.gen != gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.take()
	b.mu.Unlock()
	b.flush(b.kind, batch)
}

// evictNearestDeadline removes and returns the still-coalescing unpinned
// request with the nearest client deadline — exact EDF eviction: the entry
// closest to expiring is the least likely to be served in time, so it is
// the cheapest to shed. When no pending request carries a deadline the
// eviction falls back to the oldest arrival (the pre-deadline behavior).
// Returns nil when nothing is evictable. The caller resolves the evicted
// request; the drop-oldest-deadline shed policy uses this to make room for
// a new admission.
func (b *batcher) evictNearestDeadline() *request {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	best := -1
	for i, r := range b.pending {
		if r.pinned {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		if !r.deadline.IsZero() &&
			(b.pending[best].deadline.IsZero() || r.deadline.Before(b.pending[best].deadline)) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	r := b.pending[best]
	b.pending = append(b.pending[:best], b.pending[best+1:]...)
	if len(b.pending) == 0 && b.timer != nil {
		b.timer.Stop()
		b.timer = nil
		b.timerAt = time.Time{}
		b.gen++
	}
	return r
}

// depth reports the number of requests waiting for a flush.
func (b *batcher) depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// close flushes whatever is pending and rejects further submits.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(b.kind, batch)
	}
}
