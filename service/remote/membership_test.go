package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

// dynamicFront builds a front end with zero construction-time backends, a
// dynamic fleet, and a registrar mounted at /v1/fleet/* — the exact
// composition herosign-serve -fleet-dynamic uses.
func dynamicFront(t *testing.T, key *spx.PrivateKey, secret string, regOpts RegistrarOptions) (*service.Service, *Registrar, *httptest.Server) {
	t.Helper()
	svc, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithDynamicMembership(),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewDynamicFleet(Options{ProbeInterval: 50 * time.Millisecond, Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistrar(svc, fleet, regOpts)
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/", reg.Handler())
	mux.Handle("/", svc.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		reg.Close()
	})
	return svc, reg, ts
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func eventTypes(evs []service.FleetEvent) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func hasEvent(evs []service.FleetEvent, typ string) bool {
	for _, e := range evs {
		if e.Type == typ {
			return true
		}
	}
	return false
}

// TestDynamicJoinSignLeave is the membership acceptance path: a front end
// started with zero leaves refuses work; a leaf started afterwards joins
// via the announcer, serves byte-identical signatures, and leaves cleanly,
// after which work is refused again — all without restarting the front.
func TestDynamicJoinSignLeave(t *testing.T) {
	key := testKey(t)
	front, reg, frontTS := dynamicFront(t, key, "", RegistrarOptions{})

	ctx := context.Background()
	fut, err := front.Submit(service.Request{Kind: service.KindSign, Msg: []byte("pre-join")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); !errors.Is(err, service.ErrNoBackends) {
		t.Fatalf("sign before any join: err = %v, want ErrNoBackends", err)
	}

	// A leaf starts later and announces itself.
	_, leafTS := newLeafServer(t, key)
	ann, err := NewAnnouncer(AnnouncerOptions{
		FrontURL:      frontTS.URL,
		SelfURL:       leafTS.URL,
		RetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ann.Start()

	waitFor(t, 5*time.Second, "leaf admission", func() bool {
		return len(front.Shards()[0].Backends) == 1
	})
	if got := reg.Members(); len(got) != 1 || got[0] != leafTS.URL {
		t.Fatalf("Members() = %v, want [%s]", got, leafTS.URL)
	}

	msgs := [][]byte{[]byte("joined-0"), []byte("joined-1"), []byte("joined-2")}
	futs, err := front.SubmitBatch(service.KindSign, "", msgs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("sign %d through joined leaf: %v", i, err)
		}
		want, err := spx.Sign(key, msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Sig, want) {
			t.Fatalf("signature %d differs from local signing", i)
		}
	}

	// The membership event surfaces in the front's stats.
	if st := front.Stats(); !hasEvent(st.FleetEvents, "joined") {
		t.Fatalf("stats fleet_events = %v, want a joined event", eventTypes(st.FleetEvents))
	}

	// Clean leave: the member disappears and work is refused again.
	leaveCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := ann.Leave(leaveCtx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitFor(t, 5*time.Second, "leaf retirement", func() bool {
		return len(front.Shards()[0].Backends) == 0
	})
	fut, err = front.Submit(service.Request{Kind: service.KindSign, Msg: []byte("post-leave")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); !errors.Is(err, service.ErrNoBackends) {
		t.Fatalf("sign after leave: err = %v, want ErrNoBackends", err)
	}
	if st := front.Stats(); !hasEvent(st.FleetEvents, "left") {
		t.Fatalf("stats fleet_events = %v, want a left event", eventTypes(st.FleetEvents))
	}
}

// TestLeaseExpiryRetiresLeaf: a member that stops heartbeating is retired
// by the sweeper with a lease-expired event, exactly as if it had left.
func TestLeaseExpiryRetiresLeaf(t *testing.T) {
	key := testKey(t)
	front, reg, frontTS := dynamicFront(t, key, "", RegistrarOptions{
		LeaseTTL:      200 * time.Millisecond,
		SweepInterval: 50 * time.Millisecond,
	})
	_, leafTS := newLeafServer(t, key)

	// Join once, by hand — no heartbeats follow.
	body, _ := json.Marshal(fleetJoinReq{URL: leafTS.URL})
	resp, err := http.Post(frontTS.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr fleetJoinResp
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || jr.LeaseMs != 200 {
		t.Fatalf("join: status %d lease %dms, want 200 / 200ms", resp.StatusCode, jr.LeaseMs)
	}
	if len(front.Shards()[0].Backends) != 1 {
		t.Fatal("leaf not admitted after join")
	}

	waitFor(t, 5*time.Second, "lease expiry", func() bool {
		return len(reg.Members()) == 0
	})
	waitFor(t, 5*time.Second, "router retirement", func() bool {
		return len(front.Shards()[0].Backends) == 0
	})
	if st := front.Stats(); !hasEvent(st.FleetEvents, "lease-expired") {
		t.Fatalf("stats fleet_events = %v, want lease-expired", eventTypes(st.FleetEvents))
	}
}

// TestMembershipAuth: with a fleet secret, unsigned membership calls are
// rejected 401 and counted, while the front's client-facing /v1/* stays
// public; a secret-bearing announcer joins normally.
func TestMembershipAuth(t *testing.T) {
	key := testKey(t)
	front, _, frontTS := dynamicFront(t, key, "fleet-pw", RegistrarOptions{})
	_, leafTS := newLeafServer(t, key)

	// Unsigned join: 401.
	body, _ := json.Marshal(fleetJoinReq{URL: leafTS.URL})
	resp, err := http.Post(frontTS.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned join: status %d, want 401", resp.StatusCode)
	}

	// Client-facing endpoints stay public on the front.
	resp, err = http.Get(frontTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front /v1/stats with secret set: status %d, want 200 (public)", resp.StatusCode)
	}

	// The rejection is visible in stats.
	if st := front.Stats(); st.AuthRejected < 1 {
		t.Fatalf("auth_rejected = %d, want >= 1", st.AuthRejected)
	}

	// A signed announcer joins fine. Note the leaf here has no inbound
	// secret (the front's outgoing requests would still sign; leaves
	// ignore unknown headers).
	ann, err := NewAnnouncer(AnnouncerOptions{
		FrontURL:      frontTS.URL,
		SelfURL:       leafTS.URL,
		Secret:        "fleet-pw",
		RetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ann.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = ann.Leave(ctx)
	})
	waitFor(t, 5*time.Second, "signed join", func() bool {
		return len(front.Shards()[0].Backends) == 1
	})
}

// TestJoinRejectsForeignKey: a leaf launched with a different master key
// must be refused at join time, before it can receive any traffic.
func TestJoinRejectsForeignKey(t *testing.T) {
	key := testKey(t)
	front, reg, frontTS := dynamicFront(t, key, "", RegistrarOptions{})

	p := params.SPHINCSPlus128f
	otherKey, err := spx.KeyFromSeeds(p,
		bytes.Repeat([]byte{0x11}, p.N),
		bytes.Repeat([]byte{0x22}, p.N),
		bytes.Repeat([]byte{0x33}, p.N))
	if err != nil {
		t.Fatal(err)
	}
	_, leafTS := newLeafServer(t, otherKey)

	body, _ := json.Marshal(fleetJoinReq{URL: leafTS.URL})
	resp, err := http.Post(frontTS.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("foreign-key join: status %d (%s), want 502", resp.StatusCode, raw)
	}
	if !strings.Contains(raw.String(), "key domain") {
		t.Fatalf("foreign-key join error %q does not name the key domain", raw)
	}
	if len(reg.Members()) != 0 || len(front.Shards()[0].Backends) != 0 {
		t.Fatal("foreign-key leaf was admitted")
	}
}

// TestAuthedFleetEndToEnd: a leaf that requires the fleet secret serves a
// secret-bearing fleet (probes, warm, sign all signed) and rejects a fleet
// without one at Warm.
func TestAuthedFleetEndToEnd(t *testing.T) {
	key := testKey(t)
	leafSvc, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithDevices(mustDevice(t)),
		service.WithFlushDeadline(2*time.Millisecond),
		service.WithFleetSecret("fleet-pw"),
	)
	if err != nil {
		t.Fatal(err)
	}
	leafTS := httptest.NewServer(leafSvc.Handler())
	t.Cleanup(func() { leafTS.Close(); leafSvc.Close() })

	// No secret: the leaf's 401 fails Warm fast.
	noAuth, err := NewFleet([]string{leafTS.URL}, slowProbes)
	if err != nil {
		t.Fatal(err)
	}
	defer noAuth.Close()
	if err := noAuth.Backends()[0].(*Backend).Warm(key); err == nil {
		t.Fatal("Warm against an authed leaf succeeded without the secret")
	}

	// With the secret, the whole proxy path works.
	opts := slowProbes
	opts.Secret = "fleet-pw"
	fleet, err := NewFleet([]string{leafTS.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b := fleet.Backends()[0].(*Backend)
	if err := b.Warm(key); err != nil {
		t.Fatalf("authed Warm: %v", err)
	}
	out, err := b.RunBatch(context.Background(), key, signJob("authed-msg"))
	if err != nil {
		t.Fatalf("authed sign: %v", err)
	}
	want, err := spx.Sign(key, []byte("authed-msg"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Sigs[0], want) {
		t.Fatal("authed proxied signature differs from local signing")
	}
}

// TestAddLeafDuplicateRejected: the same URL cannot join twice through
// AddLeaf (the registrar treats a re-join as a lease renewal instead).
func TestAddLeafDuplicateRejected(t *testing.T) {
	fleet, err := NewDynamicFleet(slowProbes)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if _, err := fleet.AddLeaf("http://leaf-a:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.AddLeaf("http://leaf-a:1"); err == nil {
		t.Fatal("duplicate AddLeaf accepted")
	}
	if _, err := fleet.AddLeaf("not-a-url"); err == nil {
		t.Fatal("relative URL accepted")
	}
	if got := len(fleet.leafList()); got != 1 {
		t.Fatalf("leafList() = %d entries, want 1", got)
	}
}

func mustDevice(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	return d
}
