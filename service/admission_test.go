package service

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"herosign/internal/spx/params"
)

// TestRetryEstimateClamps pins the drain-time hint's contract: 50ms floor
// (even for empty or weightless queues), linear middle, one-minute cap.
func TestRetryEstimateClamps(t *testing.T) {
	cases := []struct {
		n    int64
		w    float64
		want time.Duration
	}{
		{0, 100, 50 * time.Millisecond},  // nothing queued -> floor
		{10, 0, 50 * time.Millisecond},   // no weight estimate -> floor
		{-5, 100, 50 * time.Millisecond}, // negative depth (racy read) -> floor
		{1, 1000, 50 * time.Millisecond}, // 1ms true estimate -> floor
		{100, 100, time.Second},          // linear region
		{500, 100, 5 * time.Second},      // linear region
		{1_000_000, 1, time.Minute},      // absurd backlog -> cap
		{100, 0.001, time.Minute},        // near-zero weight -> cap
	}
	for _, c := range cases {
		if got := retryEstimate(c.n, c.w); got != c.want {
			t.Errorf("retryEstimate(%d, %v) = %v, want %v", c.n, c.w, got, c.want)
		}
	}
}

// TestAutoLimitFloor: AutoQueueLimit must never produce a zero (= unbounded)
// or degenerate gate, whatever the backends advertise.
func TestAutoLimitFloor(t *testing.T) {
	cases := []struct {
		capacity int
		want     int64
	}{
		{0, minAutoQueueLimit},  // zero-capacity hint must stay bounded
		{-4, minAutoQueueLimit}, // nonsense hint
		{1, minAutoQueueLimit},  // tiny hint floors
		{8, minAutoQueueLimit},  // 2*8 == floor
		{9, 18},                 // above the floor: twice the capacity
		{256, 512},
	}
	for _, c := range cases {
		if got := autoLimit(c.capacity); got != c.want {
			t.Errorf("autoLimit(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

// zeroCapBackend advertises no capacity at all — the degenerate hint
// AutoQueueLimit has to survive.
type zeroCapBackend struct{ Backend }

func (zeroCapBackend) Capacity() int { return 0 }

// TestAutoQueueLimitZeroCapacityBackend: a single-shard service whose only
// backend advertises Capacity 0 still gets a bounded, non-zero admission
// gate, and overload still reports a positive retry estimate.
func TestAutoQueueLimitZeroCapacityBackend(t *testing.T) {
	svc, err := New(
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithBackends(zeroCapBackend{NewCPURefBackend(1)}),
		WithQueueLimit(AutoQueueLimit),
		WithMaxBatch(4),
		WithFlushDeadline(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st := svc.Stats()
	if len(st.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(st.Shards))
	}
	if got := st.Shards[0].QueueLimit; got != minAutoQueueLimit {
		t.Fatalf("auto queue limit with zero-capacity backend = %d, want %d",
			got, minAutoQueueLimit)
	}
}

// TestAutoQueueLimitSingleShard: with one shard, the shard gate and the
// global gate derive from the same aggregate capacity.
func TestAutoQueueLimitSingleShard(t *testing.T) {
	svc := newTestService(t,
		WithQueueLimit(AutoQueueLimit),
		WithGlobalQueueLimit(AutoQueueLimit),
	)
	defer svc.Close()
	st := svc.Stats()
	if len(st.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(st.Shards))
	}
	if st.Shards[0].QueueLimit <= 0 {
		t.Fatal("auto shard gate is unbounded")
	}
	if st.GlobalQueueLimit != st.Shards[0].QueueLimit {
		t.Fatalf("single-shard global gate %d != shard gate %d",
			st.GlobalQueueLimit, st.Shards[0].QueueLimit)
	}
}

// TestGlobalLimitBelowShardLimit: when the explicit global cap is tighter
// than the per-shard caps, the global gate rejects first and the error says
// so (scope "global"), with a positive retry estimate.
func TestGlobalLimitBelowShardLimit(t *testing.T) {
	svc := newTestService(t,
		WithShards(2),
		WithQueueLimit(100),                             // roomy shard gates
		WithGlobalQueueLimit(3),                         // but a tight global gate
		WithMaxBatch(100), WithFlushDeadline(time.Hour), // hold admits open
	)
	defer svc.Close()

	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte(fmt.Sprintf("hold-%d", i))}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	_, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("rejected")})
	if !IsOverloaded(err) {
		t.Fatalf("4th submit err = %v, want overload", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overload error type: %T", err)
	}
	if oe.Scope != "global" {
		t.Fatalf("overload scope %q, want global (global gate is the tight one)", oe.Scope)
	}
	if oe.RetryAfter < 50*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want >= 50ms floor", oe.RetryAfter)
	}
	if RetryAfter(err) != oe.RetryAfter {
		t.Fatal("RetryAfter helper disagrees with the error field")
	}

	// Per-shard accounting: the global rejection must not increment any
	// shard's Rejected counter.
	st := svc.Stats()
	for _, sh := range st.Shards {
		if sh.Rejected != 0 {
			t.Fatalf("shard %d counted a global rejection", sh.Shard)
		}
	}
	if st.RejectedTotal != 1 {
		t.Fatalf("RejectedTotal = %d, want 1", st.RejectedTotal)
	}
}

// TestOverloadHelpers covers the exported helpers on non-overload errors.
func TestOverloadHelpers(t *testing.T) {
	if IsOverloaded(nil) || IsOverloaded(errors.New("other")) {
		t.Fatal("IsOverloaded misclassified a non-overload error")
	}
	if RetryAfter(errors.New("other")) != 0 {
		t.Fatal("RetryAfter invented an estimate for a non-overload error")
	}
	err := &OverloadError{Scope: "leaf", RetryAfter: 123 * time.Millisecond}
	if !IsOverloaded(err) || RetryAfter(err) != 123*time.Millisecond {
		t.Fatalf("helpers on OverloadError: is=%v after=%v", IsOverloaded(err), RetryAfter(err))
	}
}
