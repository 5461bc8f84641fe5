// Chaos suite: drives a real front end against faulty leaves through the
// fault injector and asserts the robustness invariants the fleet claims —
// fast ejection, goodput under partial failure, a capped hedge budget,
// zero lost-but-acknowledged signatures, and byte-identical KATs.
package remote

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"testing"
	"time"

	"herosign/internal/faultinject"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestChaosEjectionWithinProbeInterval: a leaf whose connections start
// resetting must be quarantined by the very next probe tick
// (EjectProbeFailures=1), and recover once the fault clears.
func TestChaosEjectionWithinProbeInterval(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	c := newFakeLeaf(t, "c", key)

	inj := faultinject.New()
	const probeInterval = 50 * time.Millisecond
	opts := Options{
		ProbeInterval:  probeInterval,
		ProbeTimeout:   500 * time.Millisecond,
		BaseQuarantine: 100 * time.Millisecond,
		WrapTransport:  inj.RoundTripper,
	}
	_, backends := fakeFleet(t, opts, a, b, c)
	sick := backends[1]

	ejectedAt := time.Time{}
	armedAt := time.Now()
	disarm := inj.Arm(faultinject.Rule{Mode: faultinject.ModeReset, Host: hostOf(t, b.srv.URL)})
	waitFor(t, 2*time.Second, "ejection of the resetting leaf", func() bool {
		if sick.RemoteHealth().State == "ejected" {
			ejectedAt = time.Now()
			return true
		}
		return false
	})
	// One failed probe must be enough: allow two intervals of scheduling
	// slack on top of the single tick the rule requires.
	if d := ejectedAt.Sub(armedAt); d > 3*probeInterval {
		t.Fatalf("ejection took %v, want within ~one probe interval (%v)", d, probeInterval)
	}
	// The healthy siblings stay in service.
	if st := backends[0].RemoteHealth(); st.State != "healthy" {
		t.Fatalf("leaf a collateral state = %s", st.State)
	}
	if st := backends[2].RemoteHealth(); st.State != "healthy" {
		t.Fatalf("leaf c collateral state = %s", st.State)
	}

	// Clearing the fault lets quarantine lapse into recovery.
	disarm()
	waitFor(t, 5*time.Second, "recovery of the ejected leaf", func() bool {
		st := sick.RemoteHealth().State
		return st == "half-open" || st == "healthy"
	})
}

// TestChaosGoodputInvariants drives a real front end (real signing leaves)
// against a fleet where one leaf bursts 500s and another runs slow, and
// asserts: every acknowledged signature arrives and is byte-identical to
// the CPU reference (zero lost-but-acked), the error burst never surfaces
// to the client (goodput floor), and hedging stays within its budget.
func TestChaosGoodputInvariants(t *testing.T) {
	key := testKey(t)
	_, leafA := newLeafServer(t, key)
	_, leafB := newLeafServer(t, key)
	_, leafC := newLeafServer(t, key)

	inj := faultinject.New()
	fleet, err := NewFleet([]string{leafA.URL, leafB.URL, leafC.URL}, Options{
		ProbeInterval:   50 * time.Millisecond,
		HedgePercentile: 95,
		RequestTimeout:  10 * time.Second,
		BaseQuarantine:  100 * time.Millisecond,
		WrapTransport:   inj.RoundTripper,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithBackends(fleet.Backends()...),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	// The first two sign attempts — whichever leaves field them — burst
	// hard 500s (MaxHits stays below MaxAttempts, so failover can always
	// win); leaf C additionally runs slow for the whole test.
	inj.Arm(faultinject.Rule{
		Name: "burst", Mode: faultinject.ModeStatus, Status: 500,
		PathPrefix: "/v1/sign", MaxHits: 2,
	})
	inj.Arm(faultinject.Rule{
		Name: "slow", Mode: faultinject.ModeLatency, Latency: 80 * time.Millisecond,
		Host: hostOf(t, leafC.URL), PathPrefix: "/v1/sign",
	})

	ctx := context.Background()
	const n = 30
	msgs := make([][]byte, n)
	futs := make([]*service.Future, n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("chaos-%d", i))
		fut, err := front.Submit(service.Request{Kind: service.KindSign, Msg: msgs[i]})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = fut
	}
	start := time.Now()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			// Goodput floor: faults on individual leaves must never
			// surface — failover and hedging absorb them.
			t.Fatalf("sign %d surfaced a leaf fault: %v", i, err)
		}
		// Zero lost-but-acked + KAT: every acknowledged signature is the
		// byte-identical CPU-reference signature.
		want, err := spx.Sign(key, msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Sig, want) {
			t.Fatalf("signature %d differs from CPU reference under chaos", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("chaos batch took %v — tail latency unbounded", elapsed)
	}
	if inj.Hits("burst") == 0 {
		t.Fatal("the 500 burst never fired — the test proved nothing")
	}

	// Hedge budget: hedges stay under HedgeMaxFraction of primaries (+1
	// for the in-flight allowance).
	var primaries, hedges int64
	for _, b := range fleet.Backends() {
		st := b.(*Backend).RemoteHealth()
		primaries += st.PrimarySends
		hedges += st.HedgesSent
	}
	if limit := int64(float64(primaries)*fleet.opts.HedgeMaxFraction) + 1; hedges > limit {
		t.Fatalf("hedge budget blowout: %d hedges for %d primaries (limit %d)", hedges, primaries, limit)
	}
}

// TestHalfOpenFlapReEjection (satellite): a flapping leaf that fails
// exactly during its single-trial recovery probe must re-enter quarantine
// with DOUBLED backoff, and only a successful trial resets it. The fault
// injector fails sign traffic while probes stay green, which is precisely
// the flap the half-open state exists for. Run under -race: the trial
// races the probe loop's state transitions.
func TestHalfOpenFlapReEjection(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)

	inj := faultinject.New()
	base := 120 * time.Millisecond
	opts := Options{
		ProbeInterval:        20 * time.Millisecond,
		ProbeTimeout:         500 * time.Millisecond,
		BaseQuarantine:       base,
		MaxQuarantine:        10 * time.Second,
		EjectRequestFailures: 1,
		WrapTransport:        inj.RoundTripper,
	}
	fleet, backends := fakeFleet(t, opts, a)
	b := backends[0]
	l := b.leaf

	quarantineOf := func() time.Duration {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.quarantine
	}
	stateOf := func() string { return b.RemoteHealth().State }

	// Sign traffic fails; probes (on /v1/stats) stay green.
	disarm := inj.Arm(faultinject.Rule{
		Mode: faultinject.ModeStatus, Status: 500, PathPrefix: "/v1/sign",
	})

	// First failure ejects with the base quarantine.
	if _, err := b.RunBatch(context.Background(), key, signJob("flap-0")); err == nil {
		t.Fatal("faulted sign succeeded")
	}
	if got := stateOf(); got != "ejected" {
		t.Fatalf("state after first failure = %s, want ejected", got)
	}
	if got := quarantineOf(); got != base {
		t.Fatalf("first quarantine = %v, want %v", got, base)
	}

	// Probes are green, so quarantine lapses into half-open.
	waitFor(t, 5*time.Second, "first half-open", func() bool { return stateOf() == "half-open" })

	// The single recovery trial fails — the flap. Re-ejected, backoff
	// doubled.
	if _, err := b.RunBatch(context.Background(), key, signJob("flap-1")); err == nil {
		t.Fatal("half-open trial under fault succeeded")
	}
	if got := stateOf(); got != "ejected" {
		t.Fatalf("state after failed trial = %s, want ejected (re-quarantined)", got)
	}
	if got := quarantineOf(); got != 2*base {
		t.Fatalf("quarantine after flap = %v, want doubled (%v)", got, 2*base)
	}

	// Clear the fault; the next trial restores the leaf and resets the
	// backoff.
	disarm()
	waitFor(t, 5*time.Second, "second half-open", func() bool { return stateOf() == "half-open" })
	if _, err := b.RunBatch(context.Background(), key, signJob("flap-2")); err != nil {
		t.Fatalf("recovery trial failed with fault cleared: %v", err)
	}
	if got := stateOf(); got != "healthy" {
		t.Fatalf("state after successful trial = %s, want healthy", got)
	}
	if got := quarantineOf(); got != 0 {
		t.Fatalf("quarantine after recovery = %v, want reset to 0", got)
	}

	// The whole flap is visible in the event log.
	evs := fleet.Events()
	var ejected, recovered int
	for _, e := range evs {
		switch e.Type {
		case "ejected":
			ejected++
		case "recovered":
			recovered++
		}
	}
	if ejected < 2 || recovered < 1 {
		t.Fatalf("event log saw %d ejections / %d recoveries, want >=2 / >=1 (%v)",
			ejected, recovered, eventTypes(evs))
	}
}

// TestMinWeightFloor (satellite): an idle-but-healthy leaf must keep a
// routable dispatch weight — the EWMA decaying to zero between probes must
// not pin the leaf out of the rotation forever.
func TestMinWeightFloor(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	_, backends := fakeFleet(t, slowProbes, a)
	b := backends[0]

	// Simulate a leaf that has observed zero throughput since warm.
	b.leaf.mu.Lock()
	b.leaf.ewmaSigs = 0
	b.leaf.mu.Unlock()

	if w := b.Weight(); w <= 0 {
		t.Fatalf("idle healthy leaf weight = %v, want floored above zero", w)
	}
	if w := b.Weight(); w != b.f.opts.MinWeight {
		t.Fatalf("idle weight = %v, want the MinWeight floor %v", w, b.f.opts.MinWeight)
	}
	if st := b.RemoteHealth(); st.WeightSigsPerSec != b.f.opts.MinWeight {
		t.Fatalf("stats weight = %v, want floor %v", st.WeightSigsPerSec, b.f.opts.MinWeight)
	}

	// Ejection still zeroes the weight — the floor is for healthy leaves.
	b.leaf.mu.Lock()
	b.leaf.ejectLocked(b.f.opts)
	b.leaf.mu.Unlock()
	if w := b.Weight(); w != 0 {
		t.Fatalf("ejected leaf weight = %v, want 0", w)
	}
	if st := b.RemoteHealth(); st.WeightSigsPerSec != 0 {
		t.Fatalf("ejected stats weight = %v, want 0", st.WeightSigsPerSec)
	}
}
