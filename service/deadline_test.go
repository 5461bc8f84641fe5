package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// stubBackend is a scriptable Backend for scheduling tests: it fabricates
// signatures instantly (the scheduling layer never inspects signature
// bytes), reports a fixed weight so queue-wait estimates are deterministic,
// and can be blocked to build backlog on demand.
type stubBackend struct {
	name   string
	weight float64
	cap    int
	// unblock, when non-nil, holds every RunBatch until it is closed.
	unblock chan struct{}
	// perMsg simulates service time per message.
	perMsg time.Duration

	entered atomic.Int64 // batches that reached RunBatch
	ran     atomic.Int64 // messages executed
}

func (b *stubBackend) Name() string           { return b.name }
func (b *stubBackend) Capacity() int          { return b.cap }
func (b *stubBackend) Weight() float64        { return b.weight }
func (b *stubBackend) Warm(*PrivateKey) error { return nil }

func (b *stubBackend) RunBatch(ctx context.Context, key *PrivateKey, job *Job) (*BatchOutput, error) {
	b.entered.Add(1)
	if b.unblock != nil {
		select {
		case <-b.unblock:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	n := len(job.Msgs)
	if job.Kind == KindKeyGen {
		n = len(job.Seeds)
	}
	if b.perMsg > 0 {
		time.Sleep(time.Duration(n) * b.perMsg)
	}
	out := &BatchOutput{BusyUs: float64(n)}
	switch job.Kind {
	case KindSign:
		out.Sigs = make([][]byte, n)
		for i := range out.Sigs {
			out.Sigs[i] = append([]byte("stub-sig:"), job.Msgs[i]...)
		}
	case KindVerify:
		out.OK = make([]bool, n)
		for i := range out.OK {
			out.OK[i] = true
		}
	default:
		return nil, fmt.Errorf("stubBackend: unsupported kind %v", job.Kind)
	}
	b.ran.Add(int64(n))
	return out, nil
}

// newStubService builds a service on a single stubBackend with the hour-long
// flush interval most scheduling tests want (only deadlines or size flush).
func newStubService(t *testing.T, b *stubBackend, opts ...Option) *Service {
	t.Helper()
	base := []Option{
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithBackends(b),
		WithMaxBatch(100),
		WithFlushDeadline(time.Hour),
	}
	svc, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestExpiredDeadlinePreReject: an already-expired deadline fails immediately
// with ErrDeadlineExceeded and consumes no queue slot — neither the shard nor
// the global gate moves, and the tenant is charged a deadline rejection, not
// an admission.
func TestExpiredDeadlinePreReject(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub, WithQueueLimit(8), WithGlobalQueueLimit(8))
	defer svc.Close()

	sh := svc.router.shards[0]
	_, err := svc.SubmitSignOpts("", []byte("late"), SubmitOpts{
		Deadline: time.Now().Add(-time.Second),
		Tenant:   "expired-tenant",
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline error = %v, want ErrDeadlineExceeded", err)
	}
	if !IsDeadlineExceeded(err) {
		t.Fatal("IsDeadlineExceeded does not recognize the pre-rejection")
	}
	if d := sh.gate.depth(); d != 0 {
		t.Fatalf("shard gate depth = %d after pre-rejection, want 0 (no slot consumed)", d)
	}
	if d := svc.router.global.depth(); d != 0 {
		t.Fatalf("global gate depth = %d after pre-rejection, want 0", d)
	}
	ts := findTenant(t, svc.Stats().Tenants, "expired-tenant")
	if ts.RejectedDeadline != 1 || ts.Admitted != 0 || ts.Queued != 0 {
		t.Fatalf("tenant counters after pre-rejection: %+v", ts)
	}
}

// TestUnmeetableDeadlinePreReject: a live deadline nearer than the shard's
// estimated queue wait is rejected 429 with Scope "deadline" and an honest
// retry hint, again without consuming a slot; the same deadline clears on an
// idle shard because queueWait is unclamped.
func TestUnmeetableDeadlinePreReject(t *testing.T) {
	// 10 sigs/s: five queued messages put the estimated wait at 500ms.
	stub := &stubBackend{name: "slow", weight: 10, cap: 64}
	svc := newStubService(t, stub)
	defer svc.Close()
	sh := svc.router.shards[0]

	// Idle shard: a tight deadline must be admitted (wait estimate is zero).
	if _, err := svc.SubmitSignOpts("", []byte("idle-ok"), SubmitOpts{
		Deadline: time.Now().Add(50 * time.Millisecond),
	}); err != nil {
		t.Fatalf("tight deadline rejected on an idle shard: %v", err)
	}
	// The tight deadline flushed its batch inline; wait for the slot to drain
	// so the backlog below is exactly the occupants.
	waitFor(t, time.Second, func() bool { return sh.gate.depth() == 0 })

	for i := 0; i < 5; i++ {
		if _, err := svc.SubmitSign([]byte(fmt.Sprintf("occupant-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := sh.gate.depth(); d != 5 {
		t.Fatalf("backlog depth = %d, want 5", d)
	}

	_, err := svc.SubmitSignOpts("", []byte("too-tight"), SubmitOpts{
		Deadline: time.Now().Add(50 * time.Millisecond),
		Tenant:   "tight",
	})
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("unmeetable deadline error = %v, want *OverloadError", err)
	}
	if over.Scope != "deadline" {
		t.Fatalf("overload scope = %q, want \"deadline\"", over.Scope)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", over.RetryAfter)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("deadline pre-rejection does not unwrap to ErrOverloaded")
	}
	if d := sh.gate.depth(); d != 5 {
		t.Fatalf("depth = %d after pre-rejection, want 5 (no slot consumed)", d)
	}
	if ts := findTenant(t, svc.Stats().Tenants, "tight"); ts.RejectedDeadline != 1 {
		t.Fatalf("tenant \"tight\" rejected_deadline = %d, want 1", ts.RejectedDeadline)
	}
}

// TestDeadlineShorterThanFlushInterval: a deadline far tighter than the
// coalescing interval flushes its batch immediately instead of expiring in
// the hour-long window, and the signature is the real thing.
func TestDeadlineShorterThanFlushInterval(t *testing.T) {
	svc := newTestService(t, WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()

	msg := []byte("tight but feasible")
	fut, err := svc.SubmitSignOpts("", msg, SubmitOpts{
		Deadline: time.Now().Add(100 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("tight-deadline sign did not beat the flush interval: %v", err)
	}
	if err := spx.Verify(svc.PublicKey(), msg, res.Sig); err != nil {
		t.Fatalf("early-flushed signature does not verify: %v", err)
	}
}

// TestDeadlineTightensFlushTimer: a deadline longer than one flush interval
// but shorter than the armed timer re-arms the flush to one interval before
// the deadline, so the request completes well before the plain timer would
// have fired.
func TestDeadlineTightensFlushTimer(t *testing.T) {
	svc := newTestService(t, WithMaxBatch(100), WithFlushDeadline(500*time.Millisecond))
	defer svc.Close()

	start := time.Now()
	// Deadline 650ms with a 500ms interval: the timer re-arms to ~150ms.
	fut, err := svc.SubmitSignOpts("", []byte("rearm"), SubmitOpts{
		Deadline: start.Add(650 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatalf("re-armed flush: %v", err)
	}
	if d := time.Since(start); d >= 450*time.Millisecond {
		t.Fatalf("request took %v; the deadline did not tighten the 500ms flush timer", d)
	}
}

// TestDeadlineExpiresInQueue: work admitted with a live deadline that then
// expires behind a stuck backend is dropped by the pool with
// ErrDeadlineExceeded — after admission, before any signing work — and the
// tenant's expired counter moves.
func TestDeadlineExpiresInQueue(t *testing.T) {
	unblock := make(chan struct{})
	stub := &stubBackend{name: "stuck", weight: 1000, cap: 64, unblock: unblock}
	svc := newStubService(t, stub, WithMaxBatch(1), WithFlushDeadline(time.Millisecond))
	defer svc.Close()

	// Each occupant flushes immediately (MaxBatch 1); together they hold
	// every one of the pool's execution slots, so the victim must queue.
	var occs []*Future
	for i := 0; i < poolInFlight; i++ {
		occ, err := svc.SubmitSign([]byte(fmt.Sprintf("occupant-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		occs = append(occs, occ)
	}
	waitFor(t, 5*time.Second, func() bool { return stub.entered.Load() == poolInFlight })
	victim, err := svc.SubmitSignOpts("", []byte("victim"), SubmitOpts{
		Deadline: time.Now().Add(30 * time.Millisecond),
		Tenant:   "impatient",
	})
	if err != nil {
		t.Fatalf("victim admission (deadline was live): %v", err)
	}

	time.Sleep(80 * time.Millisecond) // let the victim's deadline lapse in queue
	close(unblock)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, occ := range occs {
		if _, err := occ.Wait(ctx); err != nil {
			t.Fatalf("occupant %d: %v", i, err)
		}
	}
	if _, err := victim.Wait(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired-in-queue error = %v, want ErrDeadlineExceeded", err)
	}
	if got := stub.ran.Load(); got != poolInFlight {
		t.Fatalf("backend executed %d messages, want %d (the occupants; no work spent on the expired victim)", got, poolInFlight)
	}
	if ts := findTenant(t, svc.Stats().Tenants, "impatient"); ts.Expired != 1 {
		t.Fatalf("tenant expired counter = %d, want 1", ts.Expired)
	}
}

// TestEvictNearestDeadlineExact drives the batcher's eviction directly: the
// entry with the truly nearest deadline goes first (not the oldest arrival),
// deadline-free entries only after every deadline-carrying one, and pinned
// batch members are never touched.
func TestEvictNearestDeadlineExact(t *testing.T) {
	var c collectFlush
	b := newBatcher(KindSign, 100, time.Hour, c.fn)
	defer b.close()

	now := time.Now()
	oldest := newReq() // no deadline, arrives first
	far := newReq()
	far.deadline = now.Add(3 * time.Hour)
	near := newReq()
	near.deadline = now.Add(90 * time.Minute)
	for _, r := range []*request{oldest, far, near} {
		if err := b.submit(r); err != nil {
			t.Fatal(err)
		}
	}

	if got := b.evictNearestDeadline(); got != near {
		t.Fatalf("first eviction picked %p, want the nearest-deadline entry %p", got, near)
	}
	if got := b.evictNearestDeadline(); got != far {
		t.Fatalf("second eviction did not pick the remaining deadline entry")
	}
	if got := b.evictNearestDeadline(); got != oldest {
		t.Fatalf("third eviction did not fall back to the oldest arrival")
	}
	if got := b.evictNearestDeadline(); got != nil {
		t.Fatalf("eviction from an empty batcher returned %p, want nil", got)
	}

	// Pinned members are invisible to eviction even with the nearest deadline.
	pinned := newReq()
	pinned.pinned = true
	pinned.deadline = now.Add(time.Minute)
	loose := newReq()
	for _, r := range []*request{pinned, loose} {
		if err := b.submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.evictNearestDeadline(); got != loose {
		t.Fatal("eviction picked a pinned batch member over a loose request")
	}
	if got := b.evictNearestDeadline(); got != nil {
		t.Fatal("eviction returned a pinned batch member")
	}
}

// TestShedPolicyEvictsNearestDeadline: under DropOldestDeadline a full shard
// sheds the coalescing request with the nearest client deadline — not the
// oldest arrival — to admit new work.
func TestShedPolicyEvictsNearestDeadline(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub,
		WithQueueLimit(2), WithShedPolicy(DropOldestDeadline))
	defer svc.Close()

	oldest, err := svc.SubmitSign([]byte("oldest, no deadline"))
	if err != nil {
		t.Fatal(err)
	}
	// Far enough out that the deadline-tightened timer (deadline minus the
	// hour-long interval) stays in the future and the request keeps
	// coalescing.
	doomed, err := svc.SubmitSignOpts("", []byte("nearest deadline"), SubmitOpts{
		Deadline: time.Now().Add(90 * time.Minute),
		Tenant:   "doomed",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Queue full (2/2): this admission must shed the deadline-carrying entry.
	if _, err := svc.SubmitSign([]byte("newcomer")); err != nil {
		t.Fatalf("admission with DropOldestDeadline: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = doomed.Wait(ctx)
	var over *OverloadError
	if !errors.As(err, &over) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed future error = %v, want *OverloadError", err)
	}
	select {
	case <-oldest.Done():
		t.Fatal("the oldest arrival was shed; the nearest deadline should have been")
	default:
	}
	if ts := findTenant(t, svc.Stats().Tenants, "doomed"); ts.Shed != 1 {
		t.Fatalf("tenant shed counter = %d, want 1", ts.Shed)
	}
}

// TestDeadlineRacesClose: deadline-carrying submissions racing Close must
// neither hang nor leak — every accepted future resolves with a signature,
// ErrClosed, ErrDeadlineExceeded or an overload rejection.
func TestDeadlineRacesClose(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub, WithMaxBatch(4), WithFlushDeadline(time.Millisecond))

	var mu sync.Mutex
	var futs []*Future
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				opts := SubmitOpts{Tenant: fmt.Sprintf("racer-%d", g)}
				switch i % 3 {
				case 0:
					opts.Deadline = time.Now().Add(time.Millisecond)
				case 1:
					opts.Deadline = time.Now().Add(time.Hour)
				}
				fut, err := svc.SubmitSignOpts("", []byte(fmt.Sprintf("race-%d-%d", g, i)), opts)
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDeadlineExceeded) &&
						!errors.Is(err, ErrOverloaded) {
						t.Errorf("submit during close: %v", err)
					}
					continue
				}
				mu.Lock()
				futs = append(futs, fut)
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		switch {
		case err == nil:
			if len(res.Sig) == 0 {
				t.Fatalf("future %d resolved without error but has no signature", i)
			}
		case errors.Is(err, ErrClosed), errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrOverloaded):
		default:
			t.Fatalf("future %d resolved with %v", i, err)
		}
	}
}

// findTenant pulls one tenant's stats entry, failing when absent.
func findTenant(t *testing.T, tenants []TenantStats, name string) TenantStats {
	t.Helper()
	for _, ts := range tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("tenant %q missing from stats (have %d entries)", name, len(tenants))
	return TenantStats{}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
