package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTenantBucketTakeRefund(t *testing.T) {
	base := time.Now()
	b := newTenantBucket(10, 4, base) // 10 tokens/s, burst 4, starts full

	if ok, _ := b.take(4, base); !ok {
		t.Fatal("full bucket rejected its burst")
	}
	ok, wait := b.take(1, base)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	// Deficit of one token at 10/s refills in 100ms.
	if wait < 50*time.Millisecond || wait > 150*time.Millisecond {
		t.Fatalf("refill wait = %v, want ~100ms", wait)
	}
	if ok, _ := b.take(1, base.Add(100*time.Millisecond)); !ok {
		t.Fatal("bucket still empty after the advertised refill wait")
	}
	// Refund clamps at burst: an over-refund cannot mint extra capacity.
	b.refund(100)
	if ok, _ := b.take(4, base.Add(100*time.Millisecond)); !ok {
		t.Fatal("refunded bucket cannot serve its burst")
	}
	if ok, _ := b.take(1, base.Add(100*time.Millisecond)); ok {
		t.Fatal("refund minted tokens beyond the burst cap")
	}
}

func TestTenantRegistryDefaultsAndOverflow(t *testing.T) {
	tr := newTenantRegistry(2, 0)
	def := tr.get("")
	if def.name != DefaultTenant {
		t.Fatalf("empty key mapped to %q, want %q", def.name, DefaultTenant)
	}
	if def.bucket == nil || def.bucket.burst != 8 {
		t.Fatalf("default burst not floored at 8: %+v", def.bucket)
	}
	if tr.get("") != def {
		t.Fatal("registry did not reuse the default tenant state")
	}

	// Rate limiting off: accounting states exist, buckets do not.
	off := newTenantRegistry(0, 16)
	if st := off.get("unmetered"); st.bucket != nil {
		t.Fatal("tenant got a bucket with rate limiting disabled")
	}

	// Past the cap, unseen keys share one catch-all state.
	for i := 0; i < maxTenants; i++ {
		tr.get(fmt.Sprintf("t-%d", i))
	}
	over1 := tr.get("sprayed-1")
	over2 := tr.get("sprayed-2")
	if over1 != over2 || over1.name != overflowTenant {
		t.Fatalf("overflow keys got %q/%q, want the shared %q state", over1.name, over2.name, overflowTenant)
	}
	if tr.get("t-7").name != "t-7" {
		t.Fatal("pre-cap tenant lost its dedicated state")
	}
}

// TestTenantRateLimit429: single submits beyond the tenant's burst reject
// with Scope "tenant" and an honest refill hint, without touching other
// tenants' buckets; a batch above the burst can never fit and fails
// ErrBatchTooLarge rather than a retryable 429.
func TestTenantRateLimit429(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	// Rate 1/s keeps refill negligible across the test's microseconds.
	svc := newStubService(t, stub, WithTenantRate(1), WithTenantBurst(4))
	defer svc.Close()

	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte(fmt.Sprintf("hog-%d", i)), SubmitOpts: SubmitOpts{Tenant: "hog"}}); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("hog-over"), SubmitOpts: SubmitOpts{Tenant: "hog"}})
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("over-burst submit error = %v, want *OverloadError", err)
	}
	if over.Scope != "tenant" || over.Tenant != "hog" {
		t.Fatalf("overload scope=%q tenant=%q, want tenant/hog", over.Scope, over.Tenant)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", over.RetryAfter)
	}

	// The hog's exhaustion must not touch a neighbor's bucket.
	if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("neighbor"), SubmitOpts: SubmitOpts{Tenant: "neighbor"}}); err != nil {
		t.Fatalf("neighbor submit while hog is limited: %v", err)
	}

	// A batch above the burst can never be admitted: permanent, not 429.
	msgs := make([][]byte, 5)
	opts := make([]SubmitOpts, 5)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("batch-%d", i))
		opts[i] = SubmitOpts{Tenant: "fresh"}
	}
	if _, err := svc.SubmitBatch(KindSign, "", msgs, nil, opts); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("over-burst batch error = %v, want ErrBatchTooLarge", err)
	}
	// At the burst it fits.
	if _, err := svc.SubmitBatch(KindSign, "", msgs[:4], nil, opts[:4]); err != nil {
		t.Fatalf("burst-sized batch: %v", err)
	}

	if ts := findTenant(t, svc.Stats().Tenants, "hog"); ts.RejectedRate != 1 || ts.Admitted != 4 {
		t.Fatalf("hog counters: %+v", ts)
	}
}

// TestTenantBucketRefundOnGateReject: a token taken for an admission that
// then loses at the queue gate is refunded — a full queue must not also
// charge the tenant's rate.
func TestTenantBucketRefundOnGateReject(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	// Near-zero rate: the bucket holds exactly its burst for the whole test.
	svc := newStubService(t, stub,
		WithTenantRate(0.001), WithTenantBurst(8), WithQueueLimit(1))
	defer svc.Close()

	if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("occupant"), SubmitOpts: SubmitOpts{Tenant: "r"}}); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("rejected"), SubmitOpts: SubmitOpts{Tenant: "r"}})
	var over *OverloadError
	if !errors.As(err, &over) || over.Scope != "shard" {
		t.Fatalf("gate rejection = %v, want shard-scope overload", err)
	}
	// One token spent (occupant), one refunded: exactly burst-1 must remain.
	bucket := svc.tenants.get("r").bucket
	if ok, _ := bucket.take(7, time.Now()); !ok {
		t.Fatal("bucket short after gate rejection: the failed admission was not refunded")
	}
	if ok, _ := bucket.take(1, time.Now()); ok {
		t.Fatal("bucket over-refunded: more than burst-1 tokens remained")
	}
	if ts := findTenant(t, svc.Stats().Tenants, "r"); ts.RejectedOverload != 1 {
		t.Fatalf("rejected_overload = %d, want 1", ts.RejectedOverload)
	}
}

// tenantLoadResult is one run of the overload workload from the quiet
// tenant's perspective.
type tenantLoadResult struct {
	done      int
	attempts  int
	p99       time.Duration
	stats     []TenantStats
	hotTried  int64
	hotReject int64
}

// runTenantLoad drives a stub-backed service with a paced quiet tenant and,
// when withHot is set, a hot tenant submitting flat-out — several times the
// backend's service rate, with the two tenants' combined offered load at
// least twice what the fleet can absorb.
func runTenantLoad(t *testing.T, policy ShedPolicy, withHot bool) tenantLoadResult {
	t.Helper()
	// 200µs/message: the backend absorbs ~5000 msgs/s. The hot tenant submits
	// flat-out — tens of thousands offered per second — but its bucket admits
	// only 500/s; the quiet tenant's inline-waited ~300/s always fits its own.
	stub := &stubBackend{name: "stub", weight: 5000, cap: 64, perMsg: 200 * time.Microsecond}
	svc, err := New(
		WithParams(testKey(t).Params),
		WithKey(testKey(t)),
		WithBackends(stub),
		WithMaxBatch(32),
		WithFlushDeadline(time.Millisecond),
		WithQueueLimit(128),
		WithShedPolicy(policy),
		WithTenantRate(500),
		WithTenantBurst(32),
	)
	if err != nil {
		t.Fatal(err)
	}

	stopHot := make(chan struct{})
	var hotWG sync.WaitGroup
	var hotTried, hotReject atomic.Int64
	if withHot {
		hotWG.Add(1)
		go func() {
			defer hotWG.Done()
			msg := []byte("hot")
			for {
				select {
				case <-stopHot:
					return
				default:
				}
				hotTried.Add(1)
				if _, err := svc.Submit(Request{Kind: KindSign, Msg: msg, SubmitOpts: SubmitOpts{Tenant: "hot"}}); err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("hot submit: %v", err)
						return
					}
					hotReject.Add(1)
				}
				runtime.Gosched()
			}
		}()
	}

	const quietN = 120
	res := tenantLoadResult{attempts: quietN}
	lats := make([]time.Duration, 0, quietN)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < quietN; i++ {
		start := time.Now()
		fut, err := svc.Submit(Request{Kind: KindSign, Msg: []byte(fmt.Sprintf("quiet-%d", i)), SubmitOpts: SubmitOpts{Tenant: "quiet"}})
		if err == nil {
			if _, werr := fut.Wait(ctx); werr == nil {
				res.done++
				lats = append(lats, time.Since(start))
			}
		}
		time.Sleep(time.Millisecond)
	}

	close(stopHot)
	hotWG.Wait()
	if err := svc.Close(); err != nil { // drains the hot tenant's futures
		t.Fatal(err)
	}
	res.stats = svc.Stats().Tenants
	res.hotTried = hotTried.Load()
	res.hotReject = hotReject.Load()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.p99 = lats[len(lats)*99/100]
	}
	return res
}

// TestTwoTenantOverloadIsolation is the isolation acceptance test: with the
// fleet driven well past capacity by one hot tenant, the quiet tenant keeps
// at least 80% of its solo goodput and a bounded p99 while the hot tenant
// absorbs the 429s — under both shed policies.
func TestTwoTenantOverloadIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("overload isolation needs sustained load")
	}
	solo := runTenantLoad(t, RejectNewest, false)
	if solo.done == 0 {
		t.Fatal("solo quiet run completed nothing")
	}
	t.Logf("solo: quiet %d/%d done, p99 %v", solo.done, solo.attempts, solo.p99)

	for _, policy := range []ShedPolicy{RejectNewest, DropOldestDeadline} {
		t.Run(policy.String(), func(t *testing.T) {
			mixed := runTenantLoad(t, policy, true)
			t.Logf("mixed: quiet %d/%d done, p99 %v; hot %d tried, %d rejected",
				mixed.done, mixed.attempts, mixed.p99, mixed.hotTried, mixed.hotReject)

			if float64(mixed.done) < 0.8*float64(solo.done) {
				t.Fatalf("quiet goodput collapsed under the hot tenant: %d vs %d solo (< 80%%)",
					mixed.done, solo.done)
			}
			if mixed.p99 > 500*time.Millisecond {
				t.Fatalf("quiet p99 = %v under overload, want <= 500ms", mixed.p99)
			}
			if mixed.hotReject == 0 {
				t.Fatal("hot tenant was never rate-limited; the overload went somewhere else")
			}

			hot := findTenant(t, mixed.stats, "hot")
			quiet := findTenant(t, mixed.stats, "quiet")
			if hot.RejectedRate == 0 {
				t.Fatalf("hot tenant counters show no rate rejections: %+v", hot)
			}
			if hot.Done == 0 {
				t.Fatalf("hot tenant was starved outright, want its fair share served: %+v", hot)
			}
			if quiet.RejectedRate != 0 {
				t.Fatalf("quiet tenant hit the rate limiter: %+v", quiet)
			}
			if quiet.Queued != 0 || hot.Queued != 0 {
				t.Fatalf("queued gauges nonzero after drain: quiet=%+v hot=%+v", quiet, hot)
			}
		})
	}
}

// TestTenantStatsAccounting: the per-tenant snapshot reflects one completed
// request end to end — admitted, done, latency recorded, nothing left
// queued — and the service-level stats carry the configured rate and burst.
func TestTenantStatsAccounting(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub,
		WithMaxBatch(1), WithTenantRate(100), WithTenantBurst(16))
	defer svc.Close()

	fut, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("accounted"), SubmitOpts: SubmitOpts{Tenant: "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.TenantRate != 100 || st.TenantBurst != 16 {
		t.Fatalf("stats rate/burst = %g/%d, want 100/16", st.TenantRate, st.TenantBurst)
	}
	alice := findTenant(t, st.Tenants, "alice")
	if alice.Admitted != 1 || alice.Done != 1 || alice.Queued != 0 {
		t.Fatalf("alice counters: %+v", alice)
	}
	if alice.MaxLatencyMs < alice.AvgLatencyMs {
		t.Fatalf("latency stats inconsistent: %+v", alice)
	}
}
