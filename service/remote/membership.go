package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"herosign/service"
)

// eventLog is a fixed-capacity ring of membership and health transitions,
// surfaced through /v1/stats so operators can read a fleet's recent
// history (joined/left/lease-expired/ejected/recovered) without logs.
type eventLog struct {
	mu    sync.Mutex
	ring  []service.FleetEvent
	next  int
	total int
}

func newEventLog(capacity int) *eventLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &eventLog{ring: make([]service.FleetEvent, capacity)}
}

func (e *eventLog) add(ev service.FleetEvent) {
	e.mu.Lock()
	e.ring[e.next] = ev
	e.next = (e.next + 1) % len(e.ring)
	e.total++
	e.mu.Unlock()
}

// snapshot returns the retained events, oldest first.
func (e *eventLog) snapshot() []service.FleetEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.total
	if n > len(e.ring) {
		n = len(e.ring)
	}
	out := make([]service.FleetEvent, 0, n)
	start := (e.next - n + len(e.ring)) % len(e.ring)
	for i := 0; i < n; i++ {
		out = append(out, e.ring[(start+i)%len(e.ring)])
	}
	return out
}

// Membership wire types. A join is idempotent: re-joining an existing
// member renews its lease, so a leaf's announce loop can use one request
// shape for both.
type fleetJoinReq struct {
	URL string `json:"url"`
}

type fleetJoinResp struct {
	LeaseMs int64 `json:"lease_ms"`
}

type fleetErrResp struct {
	Error string `json:"error"`
}

// RegistrarOptions tunes the front end's membership registrar.
type RegistrarOptions struct {
	// LeaseTTL is how long a join/heartbeat keeps a leaf admitted
	// (default 3s). A leaf that misses its lease is retired exactly as if
	// it had sent a leave, with a "lease-expired" event instead of "left".
	LeaseTTL time.Duration
	// SweepInterval is how often expired leases are collected (default
	// LeaseTTL/2). Retiring a member drains its pool under the service's
	// own drain deadline.
	SweepInterval time.Duration
}

func (o RegistrarOptions) withDefaults() RegistrarOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 3 * time.Second
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = o.LeaseTTL / 2
	}
	return o
}

type member struct {
	url     string
	backend *Backend
	expires time.Time
}

// Registrar runs the front end's half of dynamic fleet membership: leaves
// announce themselves with POST /v1/fleet/join, keep their lease alive
// with POST /v1/fleet/heartbeat, and retire cleanly with DELETE
// /v1/fleet/leave. A join admits the leaf end to end — key-domain catalog
// verification, Warm, router integration — so it serves traffic without a
// front-end restart; a leave (or an expired lease) drains and retires it
// the same way. All membership endpoints require fleet authentication
// when the fleet has a Secret.
//
// Construct the fleet with NewDynamicFleet and hand both to NewRegistrar;
// Registrar.Close owns the fleet's shutdown.
type Registrar struct {
	svc   *service.Service
	fleet *Fleet
	opts  RegistrarOptions
	auth  *service.FleetAuth

	mu      sync.Mutex
	members map[string]*member

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRegistrar wires a dynamic fleet's membership endpoints to a running
// front-end service and starts the lease sweeper. It also registers a
// stats hook so the fleet's membership events (and auth rejections on the
// membership endpoints) fold into the service's /v1/stats.
func NewRegistrar(svc *service.Service, fleet *Fleet, opts RegistrarOptions) *Registrar {
	r := &Registrar{
		svc:     svc,
		fleet:   fleet,
		opts:    opts.withDefaults(),
		members: make(map[string]*member),
		stop:    make(chan struct{}),
	}
	if fleet.opts.Secret != "" {
		r.auth = service.NewFleetAuth(fleet.opts.Secret)
	}
	svc.AddStatsHook(func(st *service.Stats) {
		st.FleetEvents = append(st.FleetEvents, fleet.Events()...)
		if r.auth != nil {
			st.AuthRejected += r.auth.Rejected()
		}
	})
	r.wg.Add(1)
	go r.sweepLoop()
	return r
}

// Handler serves the membership endpoints. Mount it alongside the
// service's own Handler — typically on the same mux, with the service's
// /v1/* staying public on the front end while /v1/fleet/* is always
// authenticated when a secret is configured.
func (r *Registrar) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/join", r.handleJoin)
	mux.HandleFunc("POST /v1/fleet/heartbeat", r.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/fleet/leave", r.handleLeave)
	var h http.Handler = mux
	if r.auth != nil {
		h = r.auth.Middleware(h)
	}
	return h
}

// Members lists the current members' URLs (sorted by admission is not
// guaranteed; callers sort if they need stable output).
func (r *Registrar) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for u := range r.members {
		out = append(out, u)
	}
	return out
}

func (r *Registrar) handleJoin(w http.ResponseWriter, req *http.Request) {
	var body fleetJoinReq
	if err := decodeFleetJSON(req, &body); err != nil {
		writeFleetErr(w, http.StatusBadRequest, err.Error())
		return
	}
	leafURL, err := normalizeLeafURL(body.URL)
	if err != nil {
		writeFleetErr(w, http.StatusBadRequest, err.Error())
		return
	}

	// Idempotent re-join renews the lease.
	r.mu.Lock()
	if m, ok := r.members[leafURL]; ok {
		m.expires = time.Now().Add(r.opts.LeaseTTL)
		r.mu.Unlock()
		writeFleetJSON(w, http.StatusOK, fleetJoinResp{LeaseMs: r.opts.LeaseTTL.Milliseconds()})
		return
	}
	r.mu.Unlock()

	// Verify the leaf's key-domain catalog covers every front-end shard
	// byte-identically before it touches the router. Warm re-checks the
	// assigned shard; this check catches a leaf launched with the right
	// key for one shard but a different layout for the rest.
	if err := r.verifyCatalog(req.Context(), leafURL); err != nil {
		writeFleetErr(w, http.StatusBadGateway, err.Error())
		return
	}

	backend, err := r.fleet.AddLeaf(leafURL)
	if err != nil {
		writeFleetErr(w, http.StatusConflict, err.Error())
		return
	}
	if err := r.svc.AddBackend(backend); err != nil {
		r.fleet.RemoveLeaf(backend)
		_ = backend.Close()
		writeFleetErr(w, http.StatusBadGateway, fmt.Sprintf("admit %s: %v", leafURL, err))
		return
	}

	r.mu.Lock()
	r.members[leafURL] = &member{
		url:     leafURL,
		backend: backend,
		expires: time.Now().Add(r.opts.LeaseTTL),
	}
	r.mu.Unlock()
	r.fleet.record("joined", leafURL, "")
	writeFleetJSON(w, http.StatusOK, fleetJoinResp{LeaseMs: r.opts.LeaseTTL.Milliseconds()})
}

func (r *Registrar) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var body fleetJoinReq
	if err := decodeFleetJSON(req, &body); err != nil {
		writeFleetErr(w, http.StatusBadRequest, err.Error())
		return
	}
	leafURL, err := normalizeLeafURL(body.URL)
	if err != nil {
		writeFleetErr(w, http.StatusBadRequest, err.Error())
		return
	}
	r.mu.Lock()
	m, ok := r.members[leafURL]
	if ok {
		m.expires = time.Now().Add(r.opts.LeaseTTL)
	}
	r.mu.Unlock()
	if !ok {
		// The leaf thinks it is a member but the registrar disagrees
		// (front restart, prior lease expiry) — 404 tells the announcer
		// to re-join.
		writeFleetErr(w, http.StatusNotFound, fmt.Sprintf("%s is not a fleet member", leafURL))
		return
	}
	writeFleetJSON(w, http.StatusOK, fleetJoinResp{LeaseMs: r.opts.LeaseTTL.Milliseconds()})
}

func (r *Registrar) handleLeave(w http.ResponseWriter, req *http.Request) {
	var body fleetJoinReq
	if err := decodeFleetJSON(req, &body); err != nil {
		writeFleetErr(w, http.StatusBadRequest, err.Error())
		return
	}
	leafURL, err := normalizeLeafURL(body.URL)
	if err != nil {
		writeFleetErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if !r.retire(leafURL, "left") {
		writeFleetErr(w, http.StatusNotFound, fmt.Sprintf("%s is not a fleet member", leafURL))
		return
	}
	writeFleetJSON(w, http.StatusOK, struct{}{})
}

// retire removes a member end to end: the event is logged first, then the
// leaf leaves the sibling set (no new hedges or failovers target it), then
// the router (its pool drains under the drain timeout).
func (r *Registrar) retire(leafURL, event string) bool {
	r.mu.Lock()
	m, ok := r.members[leafURL]
	if ok {
		delete(r.members, leafURL)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	// Logged before the removal, so a Stats that no longer lists the leaf
	// already shows why it left.
	r.fleet.record(event, leafURL, "")
	r.fleet.RemoveLeaf(m.backend)
	if err := r.svc.RemoveBackend(m.backend); err != nil {
		// The router may have already dropped it (service shutdown); the
		// backend's fleet reference still needs releasing.
		_ = m.backend.Close()
	}
	return true
}

// verifyCatalog fetches the candidate leaf's /v1/keys and requires every
// front-end shard's key domain to appear with a byte-identical public key.
func (r *Registrar) verifyCatalog(ctx context.Context, leafURL string) error {
	cctx, cancel := context.WithTimeout(ctx, r.fleet.opts.ProbeTimeout)
	defer cancel()
	catalog, err := r.fleet.tr.keys(cctx, leafURL)
	if err != nil {
		return fmt.Errorf("fetch %s key catalog: %v", leafURL, err)
	}
	if want := r.svc.Params().Name; catalog.Params != want {
		return fmt.Errorf("leaf %s serves %s, front end wants %s", leafURL, catalog.Params, want)
	}
	byID := make(map[string][]byte, len(catalog.Keys))
	for _, k := range catalog.Keys {
		byID[k.KeyID] = k.PublicKey
	}
	for _, sh := range r.svc.Shards() {
		pub, ok := byID[sh.KeyID]
		if !ok {
			return fmt.Errorf("leaf %s does not serve key domain %s (shard %d) — start it with the front end's master key and shard layout",
				leafURL, sh.KeyID, sh.ID)
		}
		if !bytes.Equal(pub, sh.PublicKey.Bytes()) {
			return fmt.Errorf("leaf %s key %s has a different public key (key-id collision?)", leafURL, sh.KeyID)
		}
	}
	return nil
}

func (r *Registrar) sweepLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.opts.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			now := time.Now()
			var expired []string
			r.mu.Lock()
			for u, m := range r.members {
				if now.After(m.expires) {
					expired = append(expired, u)
				}
			}
			r.mu.Unlock()
			for _, u := range expired {
				r.retire(u, "lease-expired")
			}
		}
	}
}

// Close stops the lease sweeper and shuts the dynamic fleet down. Current
// members are not drained individually — closing happens at front-end
// shutdown, where the service's own Close drains the router.
func (r *Registrar) Close() error {
	r.stopOnce.Do(func() {
		close(r.stop)
	})
	r.wg.Wait()
	return r.fleet.Close()
}

// AnnouncerOptions configures a leaf's membership announcer.
type AnnouncerOptions struct {
	// FrontURL is the front end's base URL (http://host:port).
	FrontURL string
	// SelfURL is this leaf's advertised base URL, as the front end should
	// dial it.
	SelfURL string
	// Secret must match the front end's fleet secret when set.
	Secret string
	// JoinTimeout bounds one join/heartbeat/leave request (default 5s).
	JoinTimeout time.Duration
	// RetryInterval paces re-join attempts while the front end is
	// unreachable (default 1s).
	RetryInterval time.Duration
	// Client overrides the HTTP client (tests; TLS configs).
	Client *http.Client
	// Logf, when set, receives membership lifecycle messages.
	Logf func(format string, args ...any)
}

func (o AnnouncerOptions) withDefaults() AnnouncerOptions {
	if o.JoinTimeout <= 0 {
		o.JoinTimeout = 5 * time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Announcer runs the leaf's half of dynamic membership: it joins the
// front end's registrar, heartbeats at a third of the granted lease so a
// healthy leaf never lapses, re-joins after a front-end restart, and
// leaves cleanly on shutdown. Start it after the leaf's HTTP server is
// listening; call Leave BEFORE draining the leaf's own queue on SIGTERM,
// so the front end stops routing new work to a leaf that is about to
// refuse it.
type Announcer struct {
	opts AnnouncerOptions
	auth *service.FleetAuth

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewAnnouncer validates the URLs and builds the announcer (not yet
// started).
func NewAnnouncer(opts AnnouncerOptions) (*Announcer, error) {
	opts = opts.withDefaults()
	var err error
	if opts.FrontURL, err = normalizeLeafURL(opts.FrontURL); err != nil {
		return nil, fmt.Errorf("remote: front URL: %w", err)
	}
	if opts.SelfURL, err = normalizeLeafURL(opts.SelfURL); err != nil {
		return nil, fmt.Errorf("remote: advertised URL: %w", err)
	}
	a := &Announcer{opts: opts, stop: make(chan struct{})}
	if opts.Secret != "" {
		a.auth = service.NewFleetAuth(opts.Secret)
	}
	return a, nil
}

// Start launches the join/heartbeat loop in the background. The first join
// is retried until it succeeds (the front end may not be up yet), then the
// lease is renewed at a third of its TTL; a 404 on heartbeat re-joins.
func (a *Announcer) Start() {
	a.wg.Add(1)
	go a.loop()
}

func (a *Announcer) loop() {
	defer a.wg.Done()
	leaseMs := int64(0)
	for {
		if leaseMs <= 0 {
			ms, err := a.post("/v1/fleet/join")
			if err != nil {
				a.opts.Logf("herosign: fleet join %s: %v (retrying)", a.opts.FrontURL, err)
				if !a.sleep(a.opts.RetryInterval) {
					return
				}
				continue
			}
			leaseMs = ms
			a.opts.Logf("herosign: joined fleet at %s (lease %dms)", a.opts.FrontURL, leaseMs)
		}
		interval := time.Duration(leaseMs) * time.Millisecond / 3
		if interval < 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		if !a.sleep(interval) {
			return
		}
		if _, err := a.post("/v1/fleet/heartbeat"); err != nil {
			a.opts.Logf("herosign: fleet heartbeat %s: %v (re-joining)", a.opts.FrontURL, err)
			leaseMs = 0
		}
	}
}

func (a *Announcer) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.stop:
		return false
	case <-t.C:
		return true
	}
}

// Stop halts the announce loop without telling the front end — the crash
// path: the lease simply expires and the registrar retires the leaf with a
// lease-expired event. Leave calls it implicitly for the clean path.
func (a *Announcer) Stop() {
	a.stopOnce.Do(func() {
		close(a.stop)
	})
	a.wg.Wait()
}

// Leave stops the heartbeat loop and tells the registrar this leaf is
// departing. Call it before draining the leaf's queue so the front end
// reroutes in-flight-adjacent work instead of racing the drain deadline.
func (a *Announcer) Leave(ctx context.Context) error {
	a.Stop()
	_, err := a.request(ctx, http.MethodDelete, "/v1/fleet/leave")
	return err
}

func (a *Announcer) post(path string) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), a.opts.JoinTimeout)
	defer cancel()
	return a.request(ctx, http.MethodPost, path)
}

func (a *Announcer) request(ctx context.Context, method, path string) (int64, error) {
	body, _ := json.Marshal(fleetJoinReq{URL: a.opts.SelfURL})
	req, err := http.NewRequestWithContext(ctx, method, a.opts.FrontURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if a.auth != nil {
		a.auth.Sign(req)
	}
	resp, err := a.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		var er fleetErrResp
		msg := http.StatusText(resp.StatusCode)
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return 0, fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, msg)
	}
	var jr fleetJoinResp
	if err := json.Unmarshal(raw, &jr); err != nil {
		return 0, nil // leave's empty body is fine
	}
	return jr.LeaseMs, nil
}

func normalizeLeafURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("URL %q must be absolute (http://host:port)", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

func decodeFleetJSON(req *http.Request, out any) error {
	raw, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("read body: %v", err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decode body: %v", err)
	}
	return nil
}

func writeFleetJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeFleetErr(w http.ResponseWriter, status int, msg string) {
	writeFleetJSON(w, status, fleetErrResp{Error: msg})
}
