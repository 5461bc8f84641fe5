package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

var testKeyOnce struct {
	sync.Once
	sk *spx.PrivateKey
}

// testKey matches the service package's deterministic test key so signers
// warmed by other test binaries stay cache-compatible.
func testKey(t *testing.T) *spx.PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		p := params.SPHINCSPlus128f
		sk, err := spx.KeyFromSeeds(p,
			bytes.Repeat([]byte{0x5a}, p.N),
			bytes.Repeat([]byte{0xa5}, p.N),
			bytes.Repeat([]byte{0x3c}, p.N))
		if err != nil {
			panic(err)
		}
		testKeyOnce.sk = sk
	})
	return testKeyOnce.sk
}

// newLeafServer starts a real herosign service behind its HTTP handler — an
// actual leaf, signing for real.
func newLeafServer(t *testing.T, key *spx.PrivateKey) (*service.Service, *httptest.Server) {
	t.Helper()
	dev, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithDevices(dev),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// TestFleetProxySignByteIdentical is the tentpole acceptance check: a front
// end whose only backend proxies to a real leaf over HTTP must produce
// signatures byte-identical to local signing (same key, same message, same
// bytes), and surface the leaf's health under /v1/stats.
func TestFleetProxySignByteIdentical(t *testing.T) {
	key := testKey(t)
	_, leafTS := newLeafServer(t, key)

	fleet, err := NewFleet([]string{leafTS.URL}, Options{})
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

	msgs := [][]byte{[]byte("proxy-0"), []byte("proxy-1"), []byte("proxy-2")}
	futs, err := front.SubmitBatch(service.KindSign, "", msgs, nil, nil)
	if err != nil {
		t.Fatalf("proxied batch sign: %v", err)
	}
	ctx := t.Context()
	sigs := make([][]byte, len(futs))
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("proxied sign %d: %v", i, err)
		}
		want, err := spx.Sign(key, msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Sig, want) {
			t.Fatalf("proxied signature %d differs from local signing", i)
		}
		sigs[i] = res.Sig
	}

	// Verify through the proxy too.
	vf, err := front.Submit(service.Request{Kind: service.KindVerify, Msg: msgs[0], Sig: sigs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := vf.Wait(ctx); err != nil || !res.Valid {
		t.Fatalf("proxied verify: %+v err=%v", res, err)
	}
	vf, err = front.Submit(service.Request{Kind: service.KindVerify, Msg: []byte("tampered"), Sig: sigs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := vf.Wait(ctx); err != nil || res.Valid {
		t.Fatalf("proxied verify accepted tampered message: %+v err=%v", res, err)
	}

	st := front.Stats()
	if len(st.RemoteLeaves) != 1 {
		t.Fatalf("front stats list %d remote leaves, want 1", len(st.RemoteLeaves))
	}
	rl := st.RemoteLeaves[0]
	if rl.State != "healthy" || rl.PrimarySends == 0 {
		t.Fatalf("remote leaf stats: %+v", rl)
	}
	if !strings.HasPrefix(st.Devices[0].Device, "remote(") {
		t.Fatalf("backend name %q, want remote(host)", st.Devices[0].Device)
	}
}

// TestWarmRejectsMismatchedKey: a leaf launched with a different master key
// must fail the front end's construction, not silently produce signatures
// under the wrong key domain.
func TestWarmRejectsMismatchedKey(t *testing.T) {
	p := params.SPHINCSPlus128f
	otherKey, err := spx.KeyFromSeeds(p,
		bytes.Repeat([]byte{0x11}, p.N),
		bytes.Repeat([]byte{0x22}, p.N),
		bytes.Repeat([]byte{0x33}, p.N))
	if err != nil {
		t.Fatal(err)
	}
	_, leafTS := newLeafServer(t, otherKey)

	fleet, err := NewFleet([]string{leafTS.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	_, err = service.New(
		service.WithParams(p),
		service.WithKey(testKey(t)),
		service.WithBackends(fleet.Backends()...),
	)
	if err == nil || !strings.Contains(err.Error(), "does not serve key domain") {
		t.Fatalf("front construction error = %v, want key-domain mismatch", err)
	}
}

// fakeLeaf is a scriptable leaf: real wire format, fake execution. It lets
// the health, hedging and failover paths run in milliseconds.
type fakeLeaf struct {
	t     *testing.T
	name  string
	key   *spx.PrivateKey
	keyID string

	mu           sync.Mutex
	signDelay    time.Duration
	signStatus   int // 0 serves; otherwise the HTTP status to return
	retryAfterMs int64
	statsStatus  int // 0 serves; otherwise /v1/stats returns this

	signCalls atomic.Int64
	signMsgs  atomic.Int64

	srv *httptest.Server
}

func (f *fakeLeaf) set(fn func(*fakeLeaf)) {
	f.mu.Lock()
	fn(f)
	f.mu.Unlock()
}

// sig fabricates a recognizable per-leaf signature.
func (f *fakeLeaf) sig(msg []byte) []byte {
	return append([]byte("sig:"+f.name+":"), msg...)
}

func newFakeLeaf(t *testing.T, name string, key *spx.PrivateKey) *fakeLeaf {
	f := &fakeLeaf{t: t, name: name, key: key, keyID: service.KeyID(&key.PublicKey)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"params": key.Params.Name,
			"keys": []map[string]any{{
				"key_id": f.keyID, "shard": 0, "public_key": key.PublicKey.Bytes(),
			}},
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status := f.statsStatus
		f.mu.Unlock()
		if status != 0 {
			http.Error(w, "stats down", status)
			return
		}
		json.NewEncoder(w).Encode(service.Stats{
			Params:   key.Params.Name,
			MaxBatch: 64,
			Devices:  []service.BackendStats{{SignMsgs: f.signMsgs.Load()}},
			Shards: []service.ShardStats{{
				KeyID: f.keyID, QueueLimit: 128, WeightSigsPerSec: 100,
			}},
		})
	})
	mux.HandleFunc("POST /v1/sign/batch", func(w http.ResponseWriter, r *http.Request) {
		f.signCalls.Add(1)
		f.mu.Lock()
		delay, status, retry := f.signDelay, f.signStatus, f.retryAfterMs
		f.mu.Unlock()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		if status != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "scripted failure", "retry_after_ms": retry,
			})
			return
		}
		var req struct {
			Messages [][]byte `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sigs := make([][]byte, len(req.Messages))
		for i, m := range req.Messages {
			sigs[i] = f.sig(m)
		}
		f.signMsgs.Add(int64(len(req.Messages)))
		json.NewEncoder(w).Encode(map[string]any{"key_id": f.keyID, "signatures": sigs})
	})
	mux.HandleFunc("POST /v1/verify/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Messages [][]byte `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		valid := make([]bool, len(req.Messages))
		for i := range valid {
			valid[i] = true
		}
		json.NewEncoder(w).Encode(map[string]any{"key_id": f.keyID, "valid": valid})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// fakeFleet wires fake leaves into a warmed Fleet without a front service.
func fakeFleet(t *testing.T, opts Options, leaves ...*fakeLeaf) (*Fleet, []*Backend) {
	t.Helper()
	urls := make([]string, len(leaves))
	for i, l := range leaves {
		urls[i] = l.srv.URL
	}
	fleet, err := NewFleet(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	backends := make([]*Backend, len(leaves))
	for i, b := range fleet.Backends() {
		rb := b.(*Backend)
		if err := rb.Warm(leaves[i].key); err != nil {
			t.Fatalf("warming fake leaf %d: %v", i, err)
		}
		backends[i] = rb
	}
	return fleet, backends
}

func signJob(msgs ...string) *service.Job {
	j := &service.Job{Kind: service.KindSign}
	for _, m := range msgs {
		j.Msgs = append(j.Msgs, []byte(m))
	}
	return j
}

// slowProbes keeps the health checker out of short scripted tests.
var slowProbes = Options{ProbeInterval: time.Hour}

// TestRetryAfterPropagation: overloaded leaves must surface THEIR drain
// estimate — the max across attempted leaves — not one recomputed from the
// front end's empty queue, and a 429 must not count toward ejection.
func TestRetryAfterPropagation(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	a.set(func(f *fakeLeaf) { f.signStatus = 429; f.retryAfterMs = 200 })
	b.set(func(f *fakeLeaf) { f.signStatus = 429; f.retryAfterMs = 1500 })

	_, backends := fakeFleet(t, slowProbes, a, b)
	_, err := backends[0].RunBatch(t.Context(), key, signJob("m"))
	var over *service.OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if over.Scope != "leaf" {
		t.Fatalf("overload scope %q, want leaf", over.Scope)
	}
	if over.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 1.5s (max across attempted leaves)", over.RetryAfter)
	}
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatal("leaf overload does not unwrap to ErrOverloaded")
	}
	// Both leaves were tried (failover across replicas), neither ejected.
	if a.signCalls.Load() != 1 || b.signCalls.Load() != 1 {
		t.Fatalf("sign calls a=%d b=%d, want 1 each", a.signCalls.Load(), b.signCalls.Load())
	}
	for _, rb := range backends {
		if !rb.Available() {
			t.Fatal("a 429 must not eject a leaf")
		}
	}
}

// TestFailoverOnHardError: a 5xx from the primary reroutes the batch to a
// sibling replica without surfacing an error, and without spending hedge
// budget.
func TestFailoverOnHardError(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	a.set(func(f *fakeLeaf) { f.signStatus = 500 })

	fleet, backends := fakeFleet(t, slowProbes, a, b)
	out, err := backends[0].RunBatch(t.Context(), key, signJob("m0", "m1"))
	if err != nil {
		t.Fatalf("failover batch: %v", err)
	}
	if !bytes.Equal(out.Sigs[0], b.sig([]byte("m0"))) {
		t.Fatal("failover result did not come from the sibling leaf")
	}
	if got := backends[0].RemoteHealth().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if fleet.budget.hedges != 0 {
		t.Fatalf("failover consumed %d hedge budget", fleet.budget.hedges)
	}
}

// TestRequestFailureEjection: consecutive hard request failures quarantine
// the leaf without waiting for a probe tick.
func TestRequestFailureEjection(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	a.set(func(f *fakeLeaf) { f.signStatus = 500 })

	_, backends := fakeFleet(t, slowProbes, a, b)
	for i := 0; i < 2; i++ {
		if _, err := backends[0].RunBatch(t.Context(), key, signJob("m")); err != nil {
			t.Fatalf("batch %d should have failed over: %v", i, err)
		}
	}
	if backends[0].Available() {
		t.Fatal("leaf still available after consecutive hard failures")
	}
	if backends[0].Weight() != 0 {
		t.Fatalf("ejected leaf weight = %v, want 0", backends[0].Weight())
	}
	if st := backends[0].RemoteHealth(); st.State != "ejected" || st.Ejections != 1 {
		t.Fatalf("leaf health: %+v", st)
	}
}

// TestProbeEjectionAndRecovery drives the full health state machine: a leaf
// whose probes fail is ejected within one probe interval, sits out its
// quarantine, returns via a half-open trial and is restored by a success.
func TestProbeEjectionAndRecovery(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	opts := Options{
		ProbeInterval:  20 * time.Millisecond,
		BaseQuarantine: 40 * time.Millisecond,
	}
	_, backends := fakeFleet(t, opts, a)
	rb := backends[0]

	a.set(func(f *fakeLeaf) { f.statsStatus = 503 })
	deadline := time.Now().Add(2 * time.Second)
	for rb.Available() {
		if time.Now().After(deadline) {
			t.Fatal("leaf not ejected after repeated probe failures")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rb.RemoteHealth(); st.State != "ejected" || st.ProbeFailures == 0 {
		t.Fatalf("leaf health after probe failures: %+v", st)
	}

	// Heal the leaf: after the quarantine a good probe moves it half-open.
	a.set(func(f *fakeLeaf) { f.statsStatus = 0 })
	for rb.RemoteHealth().State != "half-open" {
		if time.Now().After(deadline) {
			t.Fatal("leaf never reached half-open after quarantine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rb.Available() {
		t.Fatal("half-open leaf with no trial in flight must accept one")
	}

	// One successful trial restores it.
	if _, err := rb.RunBatch(t.Context(), key, signJob("trial")); err != nil {
		t.Fatalf("half-open trial: %v", err)
	}
	if st := rb.RemoteHealth(); st.State != "healthy" {
		t.Fatalf("leaf state after successful trial = %s, want healthy", st.State)
	}
}

// TestHedgedRetryCutsTail: a batch stuck past the adaptive percentile is
// re-issued to a sibling and the sibling's fast answer wins.
func TestHedgedRetryCutsTail(t *testing.T) {
	key := testKey(t)
	slow := newFakeLeaf(t, "slow", key)
	fast := newFakeLeaf(t, "fast", key)
	slow.set(func(f *fakeLeaf) { f.signDelay = 400 * time.Millisecond })

	opts := slowProbes
	opts.HedgePercentile = 90
	fleet, backends := fakeFleet(t, opts, slow, fast)

	// Prime the latency tracker with fast completions and the budget with
	// enough primaries that one hedge is within the 10% cap.
	for i := 0; i < 16; i++ {
		fleet.tracker.add(5 * time.Millisecond)
		fleet.budget.recordPrimary()
	}

	t0 := time.Now()
	out, err := backends[0].RunBatch(t.Context(), key, signJob("tail"))
	if err != nil {
		t.Fatalf("hedged batch: %v", err)
	}
	if d := time.Since(t0); d >= 400*time.Millisecond {
		t.Fatalf("hedge did not cut the tail: batch took %v", d)
	}
	if !bytes.Equal(out.Sigs[0], fast.sig([]byte("tail"))) {
		t.Fatal("winning signature did not come from the hedge target")
	}
	if got := backends[0].RemoteHealth().HedgesSent; got != 1 {
		t.Fatalf("primary hedgesSent = %d, want 1", got)
	}
	if got := backends[1].RemoteHealth().HedgeWins; got != 1 {
		t.Fatalf("sibling hedgeWins = %d, want 1", got)
	}
}

// TestHedgeBudgetStrictCap: hedge volume may never exceed the configured
// fraction of primary sends, from the very first request.
func TestHedgeBudgetStrictCap(t *testing.T) {
	b := &hedgeBudget{frac: 0.10}
	granted := 0
	for i := 0; i < 200; i++ {
		b.recordPrimary()
		if b.tryAcquire() {
			granted++
		}
		if float64(b.hedges) > float64(b.primaries)*b.frac {
			t.Fatalf("after %d primaries: %d hedges exceeds 10%%", b.primaries, b.hedges)
		}
	}
	if granted == 0 {
		t.Fatal("budget never granted a hedge across 200 primaries")
	}
	if granted > 20 {
		t.Fatalf("granted %d hedges for 200 primaries, cap is 20", granted)
	}
}

func TestLatencyTrackerPercentile(t *testing.T) {
	tr := newLatencyTracker(64)
	if _, ok := tr.percentile(95, 8); ok {
		t.Fatal("tracker returned a percentile before minSamples")
	}
	for i := 1; i <= 100; i++ {
		tr.add(time.Duration(i) * time.Millisecond)
	}
	// Ring holds the most recent 64 samples: 37ms..100ms.
	p50, ok := tr.percentile(50, 8)
	if !ok {
		t.Fatal("percentile unavailable after 100 samples")
	}
	if p50 < 60*time.Millisecond || p50 > 80*time.Millisecond {
		t.Fatalf("p50 = %v, want ~68ms over the 37..100ms window", p50)
	}
	p99, _ := tr.percentile(99, 8)
	if p99 < p50 {
		t.Fatal("p99 below p50")
	}
}

// TestFleetRefcountClose: the router closes each backend after its pool
// drains; the last release stops the probe loop.
func TestFleetRefcountClose(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	fleet, backends := fakeFleet(t, slowProbes, a, b)
	backends[0].Close()
	select {
	case <-fleet.stop:
		t.Fatal("fleet stopped after first backend close")
	default:
	}
	backends[1].Close()
	select {
	case <-fleet.stop:
	default:
		t.Fatal("fleet still running after last backend close")
	}
	// Double close is harmless.
	backends[1].Close()
	fleet.Close()
}

func TestNewFleetRejectsBadURLs(t *testing.T) {
	if _, err := NewFleet(nil, Options{}); err == nil {
		t.Fatal("empty URL list accepted")
	}
	for _, bad := range []string{"", "localhost:8080", "not a url"} {
		if _, err := NewFleet([]string{bad}, Options{}); err == nil {
			t.Fatalf("URL %q accepted", bad)
		}
	}
}

func TestBackendBeforeWarm(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	fleet, err := NewFleet([]string{a.srv.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	rb := fleet.Backends()[0].(*Backend)
	if _, err := rb.RunBatch(t.Context(), key, signJob("m")); err == nil ||
		!strings.Contains(err.Error(), "before Warm") {
		t.Fatalf("RunBatch before Warm: %v", err)
	}
}
