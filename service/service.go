// Package service turns the HERO-Sign batch engine into a concurrent
// signing service: a request coalescer collects individual sign / verify /
// keygen submissions into GPU-sized batches (size threshold or deadline,
// whichever fires first), a shard router spreads the flushed batches over
// per-backend worker pools with weighted least-outstanding-work dispatch,
// and bounded admission control sheds load once the queues fill. The
// structural model is hierarchical: pluggable backends below (simulated GPU
// devices, the real-CPU lane engine, later remote workers), per-backend
// pools above them, a shard router on top, a front end (HTTP/JSON, see
// Handler) above everything.
//
// Each shard owns its own keypair (derived deterministically from the
// service master key); the router maps key IDs to shards, so a single
// service signs under several key domains at once.
//
// Signatures produced through the service are byte-identical to the
// package-level Sign — coalescing, sharding and backend choice change
// scheduling, never bytes.
package service

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"time"

	"herosign/internal/core"
	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// Aliases so service callers don't need the internal packages.
type (
	Params     = params.Params
	Device     = device.Device
	PublicKey  = spx.PublicKey
	PrivateKey = spx.PrivateKey
	Features   = core.Features
)

// Config collects the service construction parameters. Zero values select
// the defaults documented per field; use New with Options rather than
// filling this in directly.
type Config struct {
	Params *Params // default SPHINCS+-128f
	// Key is shard 0's keypair and the root of the per-shard key
	// derivation. Default: a fresh key from crypto/rand.
	Key *PrivateKey
	// Devices become one simulated-GPU backend per entry, built with the
	// engine knobs below. Backends are appended after them. With neither
	// set, the default is one RTX 4090 backend.
	Devices  []*Device
	Backends []Backend

	// Shards is the number of key domains; backends distribute round-robin
	// across them. Zero selects one shard (every backend serves one key).
	Shards int

	// QueueLimit caps each shard's admitted-but-unresolved messages
	// (coalescing, queued or executing). Zero is unbounded; AutoQueueLimit
	// derives the cap from the shard's backend capacities.
	QueueLimit int
	// GlobalQueueLimit caps the whole service the same way.
	GlobalQueueLimit int
	// ShedPolicy selects what an over-limit shard does with the overflow
	// (default RejectNewest).
	ShedPolicy ShedPolicy
	// TenantRate enables per-tenant fair queuing: each API key's admitted
	// messages are charged against its own token bucket refilling at
	// TenantRate messages/s, so a hot tenant exhausts its bucket instead of
	// the shard queue. Zero disables rate limiting; per-tenant accounting in
	// Stats stays on either way.
	TenantRate float64
	// TenantBurst caps each tenant's bucket (zero derives one second of
	// TenantRate, floored at 8).
	TenantBurst int
	// DrainDeadline bounds how long Close waits for queued batches. Zero
	// waits for a full drain; past the deadline, not-yet-started batches
	// resolve ErrClosed.
	DrainDeadline time.Duration

	// FleetSecret, when non-empty, requires every request at the HTTP
	// front end to carry a valid shared-secret authenticator (see
	// FleetAuth): the configuration a leaf node runs with so only its own
	// fleet's front end can reach it. Unauthenticated requests are
	// rejected 401 and counted in Stats.AuthRejected.
	FleetSecret string
	// DynamicMembership allows constructing the service with zero
	// backends and resizing it later through AddBackend/RemoveBackend —
	// the shape of a fleet front end whose leaves join and leave at
	// runtime. While no backend is routable, submissions fail with
	// ErrNoBackends (503 on the HTTP front end).
	DynamicMembership bool

	// MaxBatch is the size-triggered flush threshold. Zero aligns it with
	// the engine's SubBatch (64 by default) so a flushed batch maps onto
	// whole launch groups.
	MaxBatch int
	// FlushDeadline bounds how long a lone request waits before its batch
	// flushes anyway. Zero selects 2ms.
	FlushDeadline time.Duration

	Features Features // engine feature set; zero value is upgraded to the full HERO stack
	SubBatch int      // engine launch-group size; zero selects the engine default (64)
	Streams  int      // engine stream count; zero selects the engine default

	baselineFeatures bool // set by WithFeatures so a zero Features can mean "baseline"
}

// Option configures New.
type Option func(*Config)

// WithParams selects the SPHINCS+ parameter set.
func WithParams(p *Params) Option { return func(c *Config) { c.Params = p } }

// WithKey installs the service master key: shard 0 signs under it and
// further shard keys derive from it (default: freshly generated).
func WithKey(sk *PrivateKey) Option { return func(c *Config) { c.Key = sk } }

// WithDevices adds one simulated-GPU backend per device entry, configured
// with the service engine knobs. Repeating a device adds a second backend
// sharing its cached, tuned signer.
func WithDevices(devs ...*Device) Option {
	return func(c *Config) { c.Devices = append(c.Devices, devs...) }
}

// WithBackends registers pre-built backends (for example NewCPURefBackend,
// or a custom implementation) alongside any device backends.
func WithBackends(bs ...Backend) Option {
	return func(c *Config) { c.Backends = append(c.Backends, bs...) }
}

// WithShards splits the service into n key domains; backends distribute
// round-robin across them. n must not exceed the backend count.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithQueueLimit bounds each shard's admitted-but-unresolved messages
// (AutoQueueLimit derives the bound from backend capacities; 0 means
// unbounded). Past the bound, submits fail with ErrOverloaded.
func WithQueueLimit(n int) Option { return func(c *Config) { c.QueueLimit = n } }

// WithGlobalQueueLimit bounds the whole service's admitted-but-unresolved
// messages the same way.
func WithGlobalQueueLimit(n int) Option { return func(c *Config) { c.GlobalQueueLimit = n } }

// WithShedPolicy selects the overload behavior (default RejectNewest).
func WithShedPolicy(p ShedPolicy) Option { return func(c *Config) { c.ShedPolicy = p } }

// WithTenantRate enables per-tenant fair queuing: each API key's admitted
// messages are charged against its own token bucket refilling at rate
// messages/s, so one hot tenant runs out of tokens (429, Scope "tenant")
// before it can fill a shard queue and starve its neighbors. Zero (the
// default) disables rate limiting; per-tenant accounting in Stats stays on
// either way.
func WithTenantRate(rate float64) Option { return func(c *Config) { c.TenantRate = rate } }

// WithTenantBurst caps each tenant's token bucket (default: one second of
// TenantRate, floored at 8). A single batch larger than its tenant's burst
// can never be admitted and fails with ErrBatchTooLarge.
func WithTenantBurst(n int) Option { return func(c *Config) { c.TenantBurst = n } }

// WithDrainDeadline bounds how long Close waits for queued batches before
// abandoning them (their futures resolve ErrClosed). Zero waits forever.
func WithDrainDeadline(d time.Duration) Option { return func(c *Config) { c.DrainDeadline = d } }

// WithFleetSecret requires fleet authentication on the HTTP front end:
// every request must carry a valid X-Herosign-Fleet-Auth header derived
// from the shared secret, or it is rejected 401 (counted in /v1/stats as
// auth_rejected). This is a leaf node's posture; a front end keeps its
// /v1/* public and protects only the membership endpoints.
func WithFleetSecret(secret string) Option { return func(c *Config) { c.FleetSecret = secret } }

// WithDynamicMembership lets the service start with zero backends and grow
// or shrink at runtime via AddBackend/RemoveBackend — the fleet front end
// whose leaves join and leave through the membership registry. While no
// backend is routable, submissions fail ErrNoBackends (503 over HTTP).
func WithDynamicMembership() Option { return func(c *Config) { c.DynamicMembership = true } }

// WithMaxBatch sets the size-triggered flush threshold.
func WithMaxBatch(n int) Option { return func(c *Config) { c.MaxBatch = n } }

// WithFlushDeadline sets the coalescing deadline.
func WithFlushDeadline(d time.Duration) Option { return func(c *Config) { c.FlushDeadline = d } }

// WithFeatures overrides the engine optimization set (default: the full
// HERO-Sign stack; pass core.Baseline()-equivalent zero Features for the
// TCAS-style baseline).
func WithFeatures(f Features) Option {
	return func(c *Config) { c.Features = f; c.baselineFeatures = true }
}

// WithSubBatch sets the engine launch-group granularity.
func WithSubBatch(n int) Option { return func(c *Config) { c.SubBatch = n } }

// WithStreams sets the engine stream count.
func WithStreams(n int) Option { return func(c *Config) { c.Streams = n } }

// shardBatchers are one shard's coalescers, indexed by Kind.
type shardBatchers [KindKeyGen + 1]*batcher

// Service is the concurrent request-coalescing signing service.
type Service struct {
	cfg      Config
	router   *router
	batchers []*shardBatchers // indexed by shard id
	tenants  *tenantRegistry
	auth     *FleetAuth // non-nil when FleetSecret is configured

	hookMu     sync.Mutex
	statsHooks []func(*Stats)

	start time.Time
}

// New builds a Service: it resolves defaults, builds (or reuses) one tuned
// signer per distinct device backend, derives the shard keys, starts the
// per-backend pools and the per-shard coalescers.
func New(opts ...Option) (*Service, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Params == nil {
		cfg.Params = params.SPHINCSPlus128f
	}
	if cfg.Key == nil {
		sk, err := spx.GenerateKey(cfg.Params)
		if err != nil {
			return nil, err
		}
		cfg.Key = sk
	}
	if cfg.Features == (Features{}) && !cfg.baselineFeatures {
		cfg.Features = core.AllFeatures()
	}

	backends := make([]Backend, 0, len(cfg.Devices)+len(cfg.Backends))
	engineCfg := core.Config{Features: cfg.Features, SubBatch: cfg.SubBatch, Streams: cfg.Streams}
	for _, d := range cfg.Devices {
		backends = append(backends, newDeviceBackend(d, engineCfg))
	}
	backends = append(backends, cfg.Backends...)
	if len(backends) == 0 && !cfg.DynamicMembership {
		d, err := device.ByName("RTX 4090")
		if err != nil {
			return nil, err
		}
		backends = append(backends, newDeviceBackend(d, engineCfg))
	}

	rt, err := newRouter(routerConfig{
		params: cfg.Params, key: cfg.Key, backends: backends,
		shards: cfg.Shards, queueLimit: cfg.QueueLimit, globalLimit: cfg.GlobalQueueLimit,
		policy: cfg.ShedPolicy, drain: cfg.DrainDeadline, dynamic: cfg.DynamicMembership,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		// Align the flush threshold with the largest preferred batch in the
		// fleet (for device backends, the engine launch group) so a full
		// flushed batch maps onto whole execution units. Backends without a
		// hint fall back to the engine default.
		best := 0
		for _, p := range rt.pools {
			if h, ok := p.backend.(BatchHinter); ok {
				if n := h.PreferredBatch(); n > best {
					best = n
				}
			}
		}
		if best <= 0 {
			best = 64
		}
		cfg.MaxBatch = best
	}
	s := &Service{
		cfg: cfg, router: rt,
		tenants: newTenantRegistry(cfg.TenantRate, cfg.TenantBurst),
		start:   time.Now(),
	}
	if cfg.FleetSecret != "" {
		s.auth = NewFleetAuth(cfg.FleetSecret)
	}
	for _, sh := range rt.shards {
		sh := sh
		flush := func(kind Kind, reqs []*request) {
			if err := rt.dispatch(sh, &batchJob{kind: kind, reqs: reqs}); err != nil {
				for _, r := range reqs {
					r.resolve(Result{}, err)
				}
			}
		}
		var sb shardBatchers
		for k := range sb {
			sb[k] = newBatcher(Kind(k), cfg.MaxBatch, cfg.FlushDeadline, flush)
		}
		s.batchers = append(s.batchers, &sb)
	}
	return s, nil
}

// Params returns the service parameter set.
func (s *Service) Params() *Params { return s.cfg.Params }

// PublicKey returns shard 0's public key — the master key domain. Use
// Shards for the full key catalog.
func (s *Service) PublicKey() *PublicKey { return &s.router.shards[0].key.PublicKey }

// ShardInfo describes one key domain.
type ShardInfo struct {
	ID        int
	KeyID     string
	PublicKey *PublicKey
	Backends  []string
}

// Shards lists the service's key domains and the backends serving each.
func (s *Service) Shards() []ShardInfo {
	out := make([]ShardInfo, 0, len(s.router.shards))
	for _, sh := range s.router.shards {
		info := ShardInfo{ID: sh.id, KeyID: sh.keyID, PublicKey: &sh.key.PublicKey}
		for _, p := range sh.poolList() {
			info.Backends = append(info.Backends, p.backend.Name())
		}
		out = append(out, info)
	}
	return out
}

// AddBackend warms b against a shard key and adds it to the routing set of
// a running service — the admit half of dynamic fleet membership. The
// backend starts receiving flushed batches as soon as Warm succeeds; its
// Weight integrates into dispatch like any construction-time backend's.
func (s *Service) AddBackend(b Backend) error { return s.router.addBackend(b) }

// RemoveBackend retires b from a running service: it immediately stops
// receiving new batches, its queued batches drain (bounded by the drain
// deadline), and it is closed. Unknown backends return an error.
func (s *Service) RemoveBackend(b Backend) error { return s.router.removeBackend(b) }

// FleetAuth returns the service's fleet authenticator, nil unless
// WithFleetSecret configured one. Front-end composition code uses it to
// protect extra endpoints (the membership registry) with the same secret
// and replay cache.
func (s *Service) FleetAuth() *FleetAuth { return s.auth }

// AddStatsHook registers fn to run on every Stats snapshot just before it
// is returned — how composition layers (the membership registry, an
// external authenticator) fold their own counters and event logs into
// /v1/stats without the service importing them.
func (s *Service) AddStatsHook(fn func(*Stats)) {
	s.hookMu.Lock()
	s.statsHooks = append(s.statsHooks, fn)
	s.hookMu.Unlock()
}

// PublicKeyFor resolves a key ID to its shard's public key.
func (s *Service) PublicKeyFor(keyID string) (*PublicKey, error) {
	sh, ok := s.router.byKeyID[keyID]
	if !ok {
		return nil, ErrUnknownKey
	}
	return &sh.key.PublicKey, nil
}

// SubmitOpts carries the optional scheduling attributes of one submission.
// The zero value — no deadline, default tenant — behaves exactly like the
// pre-deadline API.
type SubmitOpts struct {
	// Deadline is the client's absolute completion deadline (zero = none).
	// Admission pre-rejects work whose estimated queue wait already exceeds
	// it (429, Scope "deadline") and an already-expired deadline fails
	// immediately with ErrDeadlineExceeded without consuming a queue slot;
	// admitted work flushes EDF and is dropped unexecuted if it expires in
	// the queue.
	Deadline time.Time
	// Tenant is the API key the work is charged to ("" = DefaultTenant).
	// With WithTenantRate configured, each tenant's admissions draw from its
	// own token bucket; per-tenant counters appear in Stats either way.
	Tenant string
}

// Request is one sign, verify or keygen submission to Submit.
type Request struct {
	Kind Kind
	// KeyID names the key domain; "" routes to the least-loaded shard,
	// except that a verify on a multi-shard service then consults every
	// shard (see Submit).
	KeyID string
	Msg   []byte           // KindSign, KindVerify
	Sig   []byte           // KindVerify
	Seed  *core.SeedTriple // KindKeyGen; nil draws fresh seeds from crypto/rand
	SubmitOpts
}

// Submit queues one request for coalesced execution and returns its future
// immediately. It copies req's buffers (a keygen seed's components too), so
// the caller may reuse them as soon as Submit returns.
//
// A verify without a KeyID on a multi-shard service is valid when any
// shard's key validates the pair. Each shard consulted spends an admission
// slot and, with rate limiting configured, a tenant token; name the signing
// key to check one domain and spend one. An invalid verdict is only
// returned when every shard actually checked the pair; if a shard could not
// be consulted (overload, shutdown) and none validated it, the future
// resolves with that error instead of a false negative.
func (s *Service) Submit(req Request) (*Future, error) {
	req.Msg = append([]byte(nil), req.Msg...)
	req.Sig = append([]byte(nil), req.Sig...)
	if req.Kind == KindKeyGen {
		seed, err := s.keygenSeed(req.Seed)
		if err != nil {
			return nil, err
		}
		req.Seed = seed
	}
	return s.submit(req)
}

// keygenSeed copies seed's components — the future resolves
// asynchronously, and a caller may reuse (or zero) its seed buffers after
// Submit returns — or draws a fresh triple from crypto/rand when seed is nil.
func (s *Service) keygenSeed(seed *core.SeedTriple) (*core.SeedTriple, error) {
	if seed != nil {
		return &core.SeedTriple{
			SKSeed: append([]byte(nil), seed.SKSeed...),
			SKPRF:  append([]byte(nil), seed.SKPRF...),
			PKSeed: append([]byte(nil), seed.PKSeed...),
		}, nil
	}
	n := s.cfg.Params.N
	buf := make([]byte, 3*n)
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	return &core.SeedTriple{SKSeed: buf[:n], SKPRF: buf[n : 2*n], PKSeed: buf[2*n:]}, nil
}

// submit is Submit without the copy: the queued requests alias req's
// buffers, which the caller leaves untouched until the future resolves.
func (s *Service) submit(req Request) (*Future, error) {
	if req.Kind < KindSign || req.Kind > KindKeyGen {
		return nil, fmt.Errorf("service: unknown request kind %d", req.Kind)
	}
	if req.Kind == KindVerify && req.KeyID == "" && len(s.router.shards) > 1 {
		return s.verifyAnyShard(req)
	}
	sh, err := s.router.shardFor(req.KeyID)
	if err != nil {
		return nil, err
	}
	return s.submitTo(sh, req)
}

// verifyAnyShard submits the pair to every shard and resolves valid as soon
// as one shard's key validates it; its verdict precedence is valid, then a
// submit error, then a wait error, then invalid.
func (s *Service) verifyAnyShard(req Request) (*Future, error) {
	shards := s.router.shards
	subs := make([]*Future, 0, len(shards))
	var submitErr error
	for _, sh := range shards {
		fut, err := s.submitTo(sh, req) // the requests share req's buffers (never mutated)
		if err != nil {
			if submitErr == nil {
				submitErr = err
			}
			continue
		}
		subs = append(subs, fut)
	}
	if len(subs) == 0 {
		return nil, submitErr
	}
	master := newFuture()
	go func() {
		var lastRes Result
		var waitErr error
		sawVerdict := false
		for _, fut := range subs {
			<-fut.Done()
			switch {
			case fut.err == nil && fut.res.Valid:
				master.resolve(fut.res, nil)
				return
			case fut.err == nil:
				lastRes, sawVerdict = fut.res, true
			case waitErr == nil:
				waitErr = fut.err
			}
		}
		switch {
		case submitErr != nil:
			master.resolve(Result{}, submitErr) // a shard was never consulted
		case waitErr != nil:
			master.resolve(Result{}, waitErr) // a consulted shard failed
		case sawVerdict:
			master.resolve(lastRes, nil) // every shard says invalid
		default:
			master.resolve(Result{}, ErrClosed)
		}
	}()
	return master, nil
}

// submitTo admits req into the shard and hands it to the shard's coalescer.
func (s *Service) submitTo(sh *shard, req Request) (*Future, error) {
	r := &request{msg: req.Msg, sig: req.Sig, fut: newFuture(),
		deadline: req.Deadline, tenant: s.tenants.get(req.Tenant)}
	if req.Seed != nil {
		r.seed = *req.Seed
	}
	if err := s.admit(sh, req.Kind, r); err != nil {
		return nil, err
	}
	if err := s.batchers[sh.id][req.Kind].submit(r); err != nil {
		r.unadmit()
		return nil, err
	}
	return r.fut, nil
}

// admit charges one message against the tenant's token bucket and the
// global and shard admission gates (applying the shed policy on overflow),
// after pre-rejecting work that cannot meet its deadline: an expired
// deadline fails with ErrDeadlineExceeded, and a deadline nearer than the
// shard's estimated queue wait fails 429 — cheaper than queuing work that
// would only be dropped later. On success the request carries a release
// hook that refunds the slots when its future resolves.
func (s *Service) admit(sh *shard, kind Kind, r *request) error {
	now := time.Now()
	t := r.tenant
	if !r.deadline.IsZero() {
		if !r.deadline.After(now) {
			t.rejectedDeadline.Add(1)
			return ErrDeadlineExceeded
		}
		if wait := sh.queueWait(); wait > 0 && now.Add(wait).After(r.deadline) {
			t.rejectedDeadline.Add(1)
			return &OverloadError{Scope: "deadline", RetryAfter: wait}
		}
	}
	if t.bucket != nil {
		if ok, wait := t.bucket.take(1, now); !ok {
			t.rejectedRate.Add(1)
			return &OverloadError{Scope: "tenant", Tenant: t.name, RetryAfter: wait}
		}
	}
	rt := s.router
	if !rt.global.tryAcquire(1) {
		if !(s.cfg.ShedPolicy == DropOldestDeadline && s.shedOne(sh, kind) && rt.global.tryAcquire(1)) {
			rt.rejectedGlobal.Add(1)
			t.rejectedOverload.Add(1)
			if t.bucket != nil {
				t.bucket.refund(1)
			}
			return &OverloadError{Scope: "global", RetryAfter: rt.globalRetryAfter()}
		}
	}
	if !sh.gate.tryAcquire(1) {
		if !(s.cfg.ShedPolicy == DropOldestDeadline && s.shedOne(sh, kind) && sh.gate.tryAcquire(1)) {
			rt.global.release(1)
			sh.rejected.Add(1)
			t.rejectedOverload.Add(1)
			if t.bucket != nil {
				t.bucket.refund(1)
			}
			return &OverloadError{Scope: "shard", RetryAfter: sh.retryAfter()}
		}
	}
	r.release = func() {
		sh.gate.release(1)
		rt.global.release(1)
	}
	r.enqueued = now
	t.queued.Add(1)
	t.admitted.Add(1)
	return nil
}

// shedOne evicts the still-coalescing request of the same kind with the
// nearest client deadline (oldest arrival when none carries one) from the
// shard, resolving it with ErrOverloaded; its release refunds the slots the
// caller is about to claim.
func (s *Service) shedOne(sh *shard, kind Kind) bool {
	old := s.batchers[sh.id][kind].evictNearestDeadline()
	if old == nil {
		return false
	}
	sh.shed.Add(1)
	if old.tenant != nil {
		old.tenant.shed.Add(1)
	}
	old.resolve(Result{}, &OverloadError{Scope: "shard", RetryAfter: sh.retryAfter()})
	return true
}

// SubmitBatch queues a set of sign or verify members under one key domain
// ("" routes to the least-loaded shard) and returns one future per member.
// A sign batch takes msgs and a nil sigs; a verify batch takes sigs
// parallel to msgs. It copies the caller's buffers.
//
// Admission is all-or-nothing: either every member is admitted or none is
// and ErrOverloaded is returned, so a rejected batch does no work and a
// retry after Retry-After is cheap. A batch that could never fit the
// admission caps even on an idle service fails with ErrBatchTooLarge
// instead (retrying cannot help; split it). Admitted members are exempt
// from drop-oldest-deadline shedding, so competing traffic cannot waste the
// batch by evicting one of them, and keeping verify pairs together lets the
// backend lane-batch their hash work across signatures.
//
// opts is nil (all defaults) or exactly one entry per member. Tenant
// charging is grouped and all-or-nothing like the slot admission; a member
// count above its tenant's burst can never fit and fails ErrBatchTooLarge.
// Per-member deadlines do not pre-reject the batch (all-or-nothing would
// reject every member for one stale deadline); a member whose deadline
// expires in the queue resolves ErrDeadlineExceeded individually before
// any work is spent on it.
func (s *Service) SubmitBatch(kind Kind, keyID string, msgs, sigs [][]byte, opts []SubmitOpts) ([]*Future, error) {
	return s.submitBatch(kind, keyID, cloneAll(msgs), cloneAll(sigs), opts)
}

// SubmitVerifyBatchKey is SubmitBatch(KindVerify, keyID, msgs, sigs, nil).
// It keeps its name because the benchmark harness (benchmark/ladder.go),
// which builds unchanged against earlier trees too, calls it.
func (s *Service) SubmitVerifyBatchKey(keyID string, msgs, sigs [][]byte) ([]*Future, error) {
	return s.SubmitBatch(KindVerify, keyID, msgs, sigs, nil)
}

// submitBatch is SubmitBatch without the copy: the queued members alias
// msgs and sigs, which the caller leaves untouched until every returned
// future has resolved (the HTTP handlers meet this by tying their pooled
// body buffers to the futures).
func (s *Service) submitBatch(kind Kind, keyID string, msgs, sigs [][]byte, opts []SubmitOpts) ([]*Future, error) {
	unit := "messages"
	switch kind {
	case KindSign:
	case KindVerify:
		if len(msgs) != len(sigs) {
			return nil, fmt.Errorf("service: %d messages but %d signatures", len(msgs), len(sigs))
		}
		unit = "pairs"
	default:
		return nil, fmt.Errorf("service: %v requests cannot be submitted as a batch", kind)
	}
	sh, err := s.router.shardFor(keyID)
	if err != nil {
		return nil, err
	}
	if len(msgs) == 0 {
		return nil, nil
	}
	members, err := s.admitBatch(sh, len(msgs), opts, unit)
	if err != nil {
		return nil, err
	}
	futs := make([]*Future, len(msgs))
	for i, r := range members {
		r.msg = msgs[i]
		if kind == KindVerify {
			r.sig = sigs[i]
		}
		futs[i] = r.fut
	}
	if err := s.batchers[sh.id][kind].submitAll(members); err != nil {
		for _, m := range members {
			m.unadmit()
		}
		return nil, err
	}
	return futs, nil
}

// cloneAll copies every buffer of bufs (nil stays nil).
func cloneAll(bufs [][]byte) [][]byte {
	if bufs == nil {
		return nil
	}
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// admitBatch performs all-or-nothing admission of an n-member batch into
// the shard: the capacity-fit check, grouped per-tenant token charging and
// the global+shard gate acquisition. On success it returns one prepared
// pinned request per member (deadline/tenant/release stamped; msg/sig left
// for the caller; unadmit refunds a member that is never queued). On
// rejection nothing stays charged.
func (s *Service) admitBatch(sh *shard, n int, opts []SubmitOpts, unit string) ([]*request, error) {
	if opts != nil && len(opts) != n {
		return nil, fmt.Errorf("service: %d %s but %d submit options", n, unit, len(opts))
	}
	rt := s.router
	k := int64(n)
	shardCap, globalCap := sh.gate.cap(), rt.global.cap()
	if (shardCap > 0 && k > shardCap) || (globalCap > 0 && k > globalCap) {
		return nil, fmt.Errorf("%w: %d %s against caps shard=%d global=%d",
			ErrBatchTooLarge, k, unit, shardCap, globalCap)
	}

	// Group the members by tenant for all-or-nothing bucket charging.
	perMember := make([]*tenantState, n)
	var states []*tenantState
	var counts []int64
	index := make(map[*tenantState]int)
	for i := 0; i < n; i++ {
		var name string
		if opts != nil {
			name = opts[i].Tenant
		}
		t := s.tenants.get(name)
		perMember[i] = t
		j, ok := index[t]
		if !ok {
			j = len(states)
			index[t] = j
			states = append(states, t)
			counts = append(counts, 0)
		}
		counts[j]++
	}
	now := time.Now()
	for j, t := range states {
		if t.bucket != nil && float64(counts[j]) > t.bucket.burst {
			return nil, fmt.Errorf("%w: %d %s against tenant %q burst %d",
				ErrBatchTooLarge, counts[j], unit, t.name, int(t.bucket.burst))
		}
	}
	if t, wait := chargeCounts(states, counts, now); t != nil {
		t.rejectedRate.Add(1)
		return nil, &OverloadError{Scope: "tenant", Tenant: t.name, RetryAfter: wait}
	}
	if !rt.global.tryAcquire(k) {
		refundCounts(states, counts)
		rt.rejectedGlobal.Add(1)
		for _, t := range states {
			t.rejectedOverload.Add(1)
		}
		return nil, &OverloadError{Scope: "global", RetryAfter: rt.globalRetryAfter()}
	}
	if !sh.gate.tryAcquire(k) {
		rt.global.release(k)
		refundCounts(states, counts)
		sh.rejected.Add(1)
		for _, t := range states {
			t.rejectedOverload.Add(1)
		}
		return nil, &OverloadError{Scope: "shard", RetryAfter: sh.retryAfter()}
	}

	release := func() {
		sh.gate.release(1)
		rt.global.release(1)
	}
	members := make([]*request, n)
	for i := 0; i < n; i++ {
		t := perMember[i]
		t.queued.Add(1)
		t.admitted.Add(1)
		r := &request{fut: newFuture(), release: release, pinned: true, enqueued: now, tenant: t}
		if opts != nil {
			r.deadline = opts[i].Deadline
		}
		members[i] = r
	}
	return members, nil
}

// Sign submits msg and waits for the coalesced signature.
func (s *Service) Sign(ctx context.Context, msg []byte) ([]byte, error) {
	res, err := s.do(ctx, Request{Kind: KindSign, Msg: msg})
	return res.Sig, err
}

// Verify submits (msg, sig) and waits for the verdict.
func (s *Service) Verify(ctx context.Context, msg, sig []byte) (bool, error) {
	res, err := s.do(ctx, Request{Kind: KindVerify, Msg: msg, Sig: sig})
	return res.Valid, err
}

// KeyGen derives one fresh key pair on the fleet.
func (s *Service) KeyGen(ctx context.Context) (*PrivateKey, error) {
	res, err := s.do(ctx, Request{Kind: KindKeyGen})
	return res.Key, err
}

// do submits req and waits for its result (the zero Result on error).
func (s *Service) do(ctx context.Context, req Request) (Result, error) {
	fut, err := s.Submit(req)
	if err != nil {
		return Result{}, err
	}
	return fut.Wait(ctx)
}

// Close flushes pending requests, drains the router and waits for every
// in-flight future to resolve — or, with a drain deadline configured,
// abandons not-yet-started batches once it expires (their futures resolve
// ErrClosed). Submits after Close return ErrClosed.
func (s *Service) Close() error {
	for _, sb := range s.batchers {
		for _, b := range sb {
			b.close()
		}
	}
	// Batches flushed by close are already queued; the router drains them
	// before its pools exit.
	s.router.close()
	return nil
}
