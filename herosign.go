// Package herosign is a Go reproduction of HERO-Sign (HPCA 2026):
// hierarchical tuning and compiler-time GPU optimizations for SPHINCS+
// signature generation.
//
// The package offers three layers:
//
//  1. A complete, pure-Go SPHINCS+ implementation (SHA-256, simple
//     construction; the 128f/192f/256f sets the paper evaluates plus the -s
//     sets): GenerateKey, Sign, Verify.
//  2. A deterministic GPU performance-model simulator with a catalog of the
//     paper's six NVIDIA devices, over which both HERO-Sign's optimized
//     kernels and the TCAS-SPHINCSp baseline execute functionally.
//  3. The HERO-Sign engine itself — FORS Fusion with the Auto Tree Tuning
//     search, Relax-FORS, adaptive PTX/native branch selection, hybrid
//     memory placement, generalized bank-conflict padding and task-graph
//     batch execution — exposed through Accelerator.
//
// Signatures produced by any Accelerator configuration are byte-identical
// to Sign's output and verify with Verify.
//
// # Serving layer quickstart
//
// On top of the batch engine, NewService builds a concurrent
// request-coalescing signing service (package herosign/service): individual
// Submit calls are coalesced into GPU-sized batches — flushed on a size
// threshold or a deadline, whichever fires first — and a shard router
// spreads the batches over pluggable backends (simulated GPU devices, the
// real-CPU lane engine via NewCPURefBackend, or custom Backend
// implementations) with weighted least-outstanding-work dispatch. Each
// shard owns its own keypair; bounded admission control (WithQueueLimit)
// sheds overload as ErrOverloaded instead of growing queues without bound.
// An HTTP/JSON front end (Service.Handler) exposes /v1/sign,
// /v1/sign/batch, /v1/verify, /v1/keygen, /v1/keys and /v1/stats, mapping
// overload to 429 with Retry-After.
//
//	svc, err := herosign.NewService(
//		herosign.WithServiceParams(herosign.SPHINCSPlus128f),
//		herosign.WithServiceDevices(gpuA, gpuB),       // one worker per device
//		herosign.WithBackend(herosign.NewCPURefBackend(8)), // mix in real CPU
//		herosign.WithShards(2),                        // two key domains
//		herosign.WithQueueLimit(herosign.AutoQueueLimit),
//	)
//	if err != nil { ... }
//	defer svc.Close()
//
//	sig, err := svc.Sign(ctx, msg)            // coalesced under the hood
//	ok, err := svc.Verify(ctx, msg, sig)      // ok == true
//	http.ListenAndServe(":8080", svc.Handler())
//
// Fleets compose across machines: package herosign/service/remote wraps a
// whole remote herosign-serve instance as a Backend (health-weighted
// routing, outlier ejection, hedged retries), so a front-end service can
// proxy batches to leaf nodes over HTTP — see README "Multi-host
// deployment".
//
// Per-backend throughput and dispatch weights, the batch-size histogram,
// per-shard queue depths and shed/rejected counters are available from
// Service.Stats (and /v1/stats). See cmd/herosign-serve for a ready-made
// server and examples/service-demo for an open-loop mixed-backend workload
// with an overload scenario.
package herosign

import (
	"time"

	"herosign/internal/baseline"
	"herosign/internal/core"
	"herosign/internal/core/tuner"
	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

// Params identifies a SPHINCS+ parameter set.
type Params = params.Params

// Standard parameter sets. The -f sets are the paper's evaluation targets.
var (
	SPHINCSPlus128s = params.SPHINCSPlus128s
	SPHINCSPlus128f = params.SPHINCSPlus128f
	SPHINCSPlus192s = params.SPHINCSPlus192s
	SPHINCSPlus192f = params.SPHINCSPlus192f
	SPHINCSPlus256s = params.SPHINCSPlus256s
	SPHINCSPlus256f = params.SPHINCSPlus256f
)

// ParamsByName resolves a parameter set from names like "SPHINCS+-128f" or
// "128f".
func ParamsByName(name string) (*Params, error) { return params.ByName(name) }

// AllParams lists every built-in parameter set.
func AllParams() []*Params { return params.AllSets() }

// PublicKey is a SPHINCS+ public key.
type PublicKey = spx.PublicKey

// PrivateKey is a SPHINCS+ private key.
type PrivateKey = spx.PrivateKey

// GenerateKey creates a key pair from crypto/rand.
func GenerateKey(p *Params) (*PrivateKey, error) { return spx.GenerateKey(p) }

// KeyFromSeeds derives a key pair deterministically from
// (SK.seed, SK.prf, PK.seed), each p.N bytes.
func KeyFromSeeds(p *Params, skSeed, skPRF, pkSeed []byte) (*PrivateKey, error) {
	return spx.KeyFromSeeds(p, skSeed, skPRF, pkSeed)
}

// ParsePublicKey deserializes a public key (PK.seed || PK.root).
func ParsePublicKey(p *Params, b []byte) (*PublicKey, error) { return spx.ParsePublicKey(p, b) }

// ParsePrivateKey deserializes a private key
// (SK.seed || SK.prf || PK.seed || PK.root).
func ParsePrivateKey(p *Params, b []byte) (*PrivateKey, error) { return spx.ParsePrivateKey(p, b) }

// Sign produces a SPHINCS+ signature with the CPU reference implementation.
func Sign(sk *PrivateKey, msg []byte) ([]byte, error) { return spx.Sign(sk, msg, nil) }

// Verify checks a SPHINCS+ signature. It returns nil for a valid signature.
func Verify(pk *PublicKey, msg, sig []byte) error { return spx.Verify(pk, msg, sig) }

// Verifier is a reusable verification context for one public key: the
// hashing arenas are warmed at construction, after which Verify and
// VerifyBatch run with zero steady-state allocations, and VerifyBatch
// advances up to eight signatures' hash chains per multi-lane pass. A
// Verifier is not safe for concurrent use; pool one per worker.
type Verifier = spx.Verifier

// NewVerifier returns a reusable Verifier bound to pk.
func NewVerifier(pk *PublicKey) *Verifier { return spx.NewVerifier(pk) }

// GPU describes one simulated device model.
type GPU = device.Device

// GPUs lists the simulated device catalog (paper Table VII).
func GPUs() []*GPU { return device.All() }

// GPUByName resolves a device by product name ("RTX 4090") or architecture
// ("Ada").
func GPUByName(name string) (*GPU, error) { return device.ByName(name) }

// Features selects the HERO-Sign optimizations an Accelerator applies.
type Features = core.Features

// HeroFeatures returns the full HERO-Sign optimization stack.
func HeroFeatures() Features { return core.AllFeatures() }

// BaselineFeatures returns the TCAS-SPHINCSp baseline configuration.
func BaselineFeatures() Features { return core.Baseline() }

// BatchResult reports signatures and modeled performance for one batch.
type BatchResult = core.BatchResult

// TuningResult is the output of the Auto Tree Tuning search.
type TuningResult = tuner.Result

// Tune runs the offline Tree Tuning search (paper Algorithm 1) for a
// parameter set on a device.
func Tune(p *Params, d *GPU) (*TuningResult, error) {
	return tuner.Tune(p, d, tuner.Options{})
}

// Option configures an Accelerator.
type Option func(*core.Config)

// WithFeatures overrides the optimization set (default: HeroFeatures).
func WithFeatures(f Features) Option {
	return func(c *core.Config) { c.Features = f }
}

// WithSubBatch sets the launch-group granularity for stream/graph
// scheduling (default 64, the paper's preferred batch size).
func WithSubBatch(n int) Option {
	return func(c *core.Config) { c.SubBatch = n }
}

// WithStreams sets the number of concurrent streams (default 4).
func WithStreams(n int) Option {
	return func(c *core.Config) { c.Streams = n }
}

// Accelerator signs message batches on a simulated GPU.
type Accelerator struct {
	signer *core.Signer
}

// NewAccelerator builds a batch signer for the parameter set on the device.
// By default it applies the full HERO-Sign optimization stack, running the
// Tree Tuning search during construction.
func NewAccelerator(p *Params, d *GPU, opts ...Option) (*Accelerator, error) {
	cfg := core.Config{Params: p, Device: d, Features: core.AllFeatures()}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Accelerator{signer: s}, nil
}

// SignBatch signs every message, returning signatures (byte-identical to
// Sign) and modeled performance.
func (a *Accelerator) SignBatch(sk *PrivateKey, msgs [][]byte) (*BatchResult, error) {
	return a.signer.SignBatch(sk, msgs)
}

// MeasureBatch runs a sampled batch of the given size for performance
// measurement only (no signatures returned).
func (a *Accelerator) MeasureBatch(sk *PrivateKey, batch int) (*BatchResult, error) {
	return a.signer.MeasureBatch(sk, batch, 4)
}

// VerifyResult reports a batch verification run.
type VerifyResult = core.VerifyResult

// VerifyBatch checks a batch of signatures on the simulated GPU (one block
// per message, FORS-tree- and chain-level parallel). The verdicts agree
// exactly with Verify.
func (a *Accelerator) VerifyBatch(pk *PublicKey, msgs, sigs [][]byte) (*VerifyResult, error) {
	return a.signer.VerifyBatch(pk, msgs, sigs)
}

// SeedTriple is the (SK.seed, SK.prf, PK.seed) input to batch key
// generation; each component is Params.N bytes.
type SeedTriple = core.SeedTriple

// KeyGenResult reports a batch key-generation run.
type KeyGenResult = core.KeyGenResult

// KeyGenBatch derives key pairs on the simulated GPU (one block per key,
// leaf-level parallel treehash). Keys are byte-identical to KeyFromSeeds.
func (a *Accelerator) KeyGenBatch(seeds []SeedTriple) (*KeyGenResult, error) {
	return a.signer.KeyGenBatch(seeds)
}

// Tuning returns the Tree Tuning result, or nil when fusion is disabled.
func (a *Accelerator) Tuning() *TuningResult { return a.signer.Tuning() }

// Params returns the parameter set the accelerator was built for.
func (a *Accelerator) Params() *Params { return a.signer.Params() }

// Device returns the simulated device the accelerator targets.
func (a *Accelerator) Device() *GPU { return a.signer.Device() }

// Service is the concurrent request-coalescing signing service (package
// herosign/service): per-shard request coalescers over a shard router that
// spreads batches across pluggable backends with weighted
// least-outstanding-work dispatch, bounded admission control, and an
// HTTP/JSON front end.
type Service = service.Service

// ServiceOption configures NewService.
type ServiceOption = service.Option

// Request is one unit of work for Service.Submit: a message to sign, a
// (message, signature) pair to verify, or a key to generate.
type Request = service.Request

// SubmitOpts carries a request's client deadline and tenant; a Request
// embeds it and Service.SubmitBatch takes one per member.
type SubmitOpts = service.SubmitOpts

// Kind names the job type of a Request or a SubmitBatch call.
type Kind = service.Kind

// Job kinds.
const (
	KindSign   = service.KindSign
	KindVerify = service.KindVerify
	KindKeyGen = service.KindKeyGen
)

// Future is the pending result of a Submit or SubmitBatch member.
type Future = service.Future

// Backend is one executor in the service fleet: a simulated GPU device, the
// real-CPU lane engine, or a whole remote herosign-serve instance (package
// herosign/service/remote); a real-CUDA worker registers here instead of
// rewriting the scheduler.
type Backend = service.Backend

// ShedPolicy selects what an over-limit shard does with overflow load.
type ShedPolicy = service.ShedPolicy

// Shed policies for WithShedPolicy.
const (
	RejectNewest       = service.RejectNewest
	DropOldestDeadline = service.DropOldestDeadline
)

// AutoQueueLimit derives admission caps from backend capacity hints.
const AutoQueueLimit = service.AutoQueueLimit

// ErrOverloaded is returned (wrapped) by Submit calls the admission
// controller rejects; the HTTP front end maps it to 429 with Retry-After.
var ErrOverloaded = service.ErrOverloaded

// NewDeviceBackend wraps a simulated GPU device as a service Backend.
func NewDeviceBackend(d *GPU) Backend { return service.NewDeviceBackend(d) }

// NewCPURefBackend wraps the real-CPU lane-engine signer as a service
// Backend with the given worker-goroutine count (<= 0 selects GOMAXPROCS).
func NewCPURefBackend(threads int) Backend { return service.NewCPURefBackend(threads) }

// NewCPURefBackendMemo is NewCPURefBackend with per-key hypertree
// memoization: all workers share a cache of XMSS subtree state bounded by
// memoBytes, and with warm set the pinned top layers are prebuilt during
// backend warm-up (before the shard serves) instead of on the request
// path. Cache counters surface under "memo" in Service.Stats and
// /v1/stats. Signatures are byte-identical with and without the cache.
func NewCPURefBackendMemo(threads int, memoBytes int64, warm bool) Backend {
	return service.NewCPURefBackendMemo(threads, memoBytes, warm)
}

// Service options, wrapped so callers need only this package. The
// WithService* names avoid clashing with the Accelerator options.

// WithServiceParams selects the parameter set (default SPHINCS+-128f).
func WithServiceParams(p *Params) ServiceOption { return service.WithParams(p) }

// WithServiceKey installs the signing key (default: freshly generated).
func WithServiceKey(sk *PrivateKey) ServiceOption { return service.WithKey(sk) }

// WithServiceDevices sets the fleet, one worker per device entry.
func WithServiceDevices(devs ...*GPU) ServiceOption { return service.WithDevices(devs...) }

// WithServiceMaxBatch sets the size-triggered flush threshold (default:
// the engine SubBatch, 64).
func WithServiceMaxBatch(n int) ServiceOption { return service.WithMaxBatch(n) }

// WithServiceFlushDeadline bounds a lone request's coalescing wait
// (default 2ms).
func WithServiceFlushDeadline(d time.Duration) ServiceOption { return service.WithFlushDeadline(d) }

// WithServiceFeatures overrides the engine optimization set.
func WithServiceFeatures(f Features) ServiceOption { return service.WithFeatures(f) }

// WithServiceSubBatch sets the engine launch-group granularity.
func WithServiceSubBatch(n int) ServiceOption { return service.WithSubBatch(n) }

// WithServiceStreams sets the engine stream count.
func WithServiceStreams(n int) ServiceOption { return service.WithStreams(n) }

// WithBackend registers pre-built backends (NewDeviceBackend,
// NewCPURefBackend, or custom) alongside any WithServiceDevices workers.
func WithBackend(bs ...Backend) ServiceOption { return service.WithBackends(bs...) }

// WithShards splits the service into n key domains; backends distribute
// round-robin across them and each shard signs under its own derived key.
func WithShards(n int) ServiceOption { return service.WithShards(n) }

// WithQueueLimit bounds each shard's admitted-but-unresolved messages
// (AutoQueueLimit derives the bound from backend capacities; 0 means
// unbounded). Past the bound, submits fail with ErrOverloaded and the HTTP
// front end answers 429 with Retry-After.
func WithQueueLimit(n int) ServiceOption { return service.WithQueueLimit(n) }

// WithGlobalQueueLimit bounds the whole service's admitted-but-unresolved
// messages the same way.
func WithGlobalQueueLimit(n int) ServiceOption { return service.WithGlobalQueueLimit(n) }

// WithShedPolicy selects the overload behavior: RejectNewest (default) or
// DropOldestDeadline.
func WithShedPolicy(p ShedPolicy) ServiceOption { return service.WithShedPolicy(p) }

// WithDrainDeadline bounds how long Service.Close waits for queued batches
// before abandoning them (zero waits for a full drain).
func WithDrainDeadline(d time.Duration) ServiceOption { return service.WithDrainDeadline(d) }

// WithTenantRate enables per-tenant fair queuing: each API key's admitted
// messages draw from its own token bucket refilling at rate messages/s, so
// one hot tenant is rate-limited (429) before it can starve a shard. Zero
// (the default) disables rate limiting; per-tenant counters in /v1/stats
// stay on either way.
func WithTenantRate(rate float64) ServiceOption { return service.WithTenantRate(rate) }

// WithTenantBurst caps each tenant's token bucket (default: one second of
// the tenant rate, floored at 8).
func WithTenantBurst(n int) ServiceOption { return service.WithTenantBurst(n) }

// NewService builds the request-coalescing signing service. See the
// package documentation's serving-layer quickstart.
func NewService(opts ...ServiceOption) (*Service, error) { return service.New(opts...) }

// NewBaseline builds a TCAS-SPHINCSp-style baseline signer for comparisons.
func NewBaseline(p *Params, d *GPU) (*Accelerator, error) {
	b, err := baseline.New(p, d)
	if err != nil {
		return nil, err
	}
	return &Accelerator{signer: b.Core()}, nil
}
