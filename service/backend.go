package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"herosign/internal/core"
	"herosign/internal/gpu/device"
	"herosign/internal/spx"
)

// SeedTriple aliases the engine's (SK.seed, SK.prf, PK.seed) input so
// Backend implementations outside this package can name it.
type SeedTriple = core.SeedTriple

// Job is one flushed batch on its way to a Backend. Exactly the fields
// matching Kind are populated; the scheduling metadata below is advisory
// and may be nil when no request in the batch carried it.
type Job struct {
	Kind  Kind
	Msgs  [][]byte     // KindSign and KindVerify
	Sigs  [][]byte     // KindVerify
	Seeds []SeedTriple // KindKeyGen

	// DeadlinesMs holds each message's remaining client deadline in
	// milliseconds at dispatch time (0 = none), parallel to the Kind inputs.
	// Proxying backends (service/remote) forward it so a leaf's scheduler
	// sees the same urgency the front end did; local backends may ignore it.
	// Nil when no message in the batch carries a deadline.
	DeadlinesMs []int64
	// Tenants holds each message's API key ("" = default tenant), parallel
	// to the Kind inputs, for proxying backends to forward. Nil when every
	// message is the default tenant.
	Tenants []string
}

// BatchOutput is a Backend's result for one Job. Slices are parallel to the
// Job inputs.
type BatchOutput struct {
	Sigs [][]byte      // KindSign
	OK   []bool        // KindVerify
	Keys []*PrivateKey // KindKeyGen

	// BusyUs is the backend's execution time for the batch in microseconds:
	// modeled device time for simulated backends, measured wall time for
	// real-CPU backends. A backend whose batches overlap reports each one's
	// effective share (see BusyClock), so the pool's busy totals do not
	// count the shared time twice. It feeds the stats and the dispatch weight.
	BusyUs           float64
	LaunchOverheadUs float64
}

// Backend executes flushed batches for one executor: a simulated GPU device,
// the real-CPU lane engine, or a remote worker. The pool that owns a backend
// keeps up to two batches in flight, so RunBatch may run for two batches at
// once, beside concurrent Weight/Capacity/Name readers. A backend that must
// stay exclusive (the modeled GPU device) serializes RunBatch itself.
type Backend interface {
	// Name identifies the backend in stats and results.
	Name() string
	// Capacity hints how many messages the backend can profitably keep in
	// flight; AutoQueueLimit derives shard queue bounds from it.
	Capacity() int
	// Weight is the backend's signing throughput estimate in signatures per
	// second — modeled for simulated devices, measured for CPU backends.
	// The router's weighted least-outstanding-work dispatch divides each
	// backend's outstanding messages by its weight.
	Weight() float64
	// Warm prepares the backend for a shard key (engine construction,
	// kernel selection, weight calibration). Called once per shard before
	// any RunBatch.
	Warm(key *PrivateKey) error
	// RunBatch executes one flushed batch. The context is canceled when the
	// service aborts a drain; backends should honor it between units of
	// work where practical. The job's byte slices may alias a request's
	// pooled buffers, which are recycled once the batch's futures resolve:
	// nothing started here may read them after RunBatch returns.
	RunBatch(ctx context.Context, key *PrivateKey, job *Job) (*BatchOutput, error)
}

// BatchHinter is an optional Backend refinement: a preferred coalescing
// batch size (for device backends, the engine launch group). New aligns the
// service flush threshold with the largest hint in the fleet; backends
// without the method accept whatever batch sizes the coalescer produces.
type BatchHinter interface {
	PreferredBatch() int
}

// Availabler is an optional Backend refinement for executors that can go
// away at runtime (a remote leaf that failed its health checks, say). The
// router's dispatch skips pools whose backend reports false; when every
// pool in a shard is unavailable, dispatch falls back to the least-loaded
// one so batches still resolve (with the backend's error) instead of
// hanging. Backends without the method are always available.
type Availabler interface {
	Available() bool
}

// Backends may additionally implement io.Closer; the router closes them
// after their pools drain, so a backend owning sockets or background
// goroutines (remote health probes) can release them on Service.Close.

// weightMeter tracks a backend's sigs/s estimate: seeded by calibration in
// Warm, refined by an EWMA over observed sign batches.
type weightMeter struct {
	mu sync.Mutex
	w  float64
}

func (m *weightMeter) get() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.w
}

func (m *weightMeter) seed(w float64) {
	m.mu.Lock()
	if w > 0 {
		m.w = w
	}
	m.mu.Unlock()
}

// observe folds one executed sign batch into the estimate: n messages that
// ran for wallUs, effUs of which were the batch's own (see BusyClock). The
// batch moves the estimate toward n/effUs with weight 0.3·effUs/wallUs, so
// a serial batch (effUs = wallUs) is the plain 0.3 EWMA step toward n/wallUs,
// while a batch that shared its run with another counts only for its share
// — two overlapping batches together move the estimate toward their
// combined rate instead of toward half of it.
func (m *weightMeter) observe(n int, wallUs, effUs float64) {
	if n <= 0 || wallUs <= 0 {
		return
	}
	m.mu.Lock()
	if m.w <= 0 {
		m.w = float64(n) / wallUs * 1e6
	} else {
		m.w += 0.3 * (float64(n)*1e6 - m.w*effUs) / wallUs
	}
	m.mu.Unlock()
}

// BusyClock charges the batches of one executor for their effective time
// when they overlap: a batch that ran from start to end is charged
// end − max(start, the previous completion on this clock). Serial batches
// are charged their wall time; overlapping ones split the shared stretch,
// so the charges sum to (about) the time the executor was busy rather than
// to the sum of the batches' wall times. Backends that run two batches at
// once and report measured wall time as BusyUs charge through one.
type BusyClock struct {
	mu   sync.Mutex
	last time.Time
}

// Charge returns the effective time of a batch that ran from start to end.
func (c *BusyClock) Charge(start, end time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	from := start
	if c.last.After(from) {
		from = c.last
	}
	if end.After(c.last) {
		c.last = end
	}
	if eff := end.Sub(from); eff > 0 {
		return eff
	}
	return 0
}

// signerKey identifies one cached core.Signer. Tree Tuning and the adaptive
// PTX probe run once per key; every backend configured for the same
// (params, device, features, geometry) shares the warmed signer.
type signerKey struct {
	params      string
	device      string
	features    core.Features
	subBatch    int
	streams     int
	alpha       float64
	probeBlocks int
}

var signerCache = struct {
	sync.Mutex
	m map[signerKey]*core.Signer
}{m: make(map[signerKey]*core.Signer)}

// cachedSigner returns the shared signer for cfg, building and warming it
// under the cache lock on first use. Warming runs the adaptive PTX probe so
// the signer's kernel selection is immutable afterwards, which is what makes
// concurrent SignBatch calls from multiple backends safe.
//
// The cache is process-wide and keyed by configuration, not by signing key:
// the PTX probe's variant choice is a performance-model decision (never a
// correctness one), so a signer warmed with one key is reused for another —
// including across shards, whose keys differ by design.
func cachedSigner(cfg core.Config, sk *spx.PrivateKey) (*core.Signer, error) {
	key := signerKey{
		params: cfg.Params.Name, device: cfg.Device.Name,
		features: cfg.Features, subBatch: cfg.SubBatch, streams: cfg.Streams,
		alpha: cfg.Alpha, probeBlocks: cfg.ProbeBlocks,
	}
	signerCache.Lock()
	defer signerCache.Unlock()
	if s, ok := signerCache.m[key]; ok {
		return s, nil
	}
	s, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.Selection(sk); err != nil {
		return nil, err
	}
	signerCache.m[key] = s
	return s, nil
}

// deviceBackend runs batches on one simulated GPU device through the HERO
// engine. BusyUs is modeled device time from the scheduler timelines. The
// modeled device executes one batch at a time: RunBatch holds mu, so the
// pool's second in-flight batch waits for the device rather than overlapping
// it, and modeled busy time adds up as it always has.
type deviceBackend struct {
	dev    *device.Device
	cfg    core.Config // engine knobs; Params/Device filled in Warm
	signer *core.Signer
	weight weightMeter

	mu sync.Mutex
	// onRun, when set (by tests), is called inside the exclusive section.
	onRun func()
}

// NewDeviceBackend wraps one simulated GPU device as a Backend with the
// default engine configuration (full HERO feature stack). Service options
// like WithFeatures do not reach into pre-built backends; use WithDevices
// for engine-configured device workers.
func NewDeviceBackend(d *Device) Backend {
	return newDeviceBackend(d, core.Config{Features: core.AllFeatures()})
}

func newDeviceBackend(d *device.Device, cfg core.Config) *deviceBackend {
	return &deviceBackend{dev: d, cfg: cfg}
}

func (b *deviceBackend) Name() string { return b.dev.Name }

func (b *deviceBackend) Capacity() int {
	if b.signer != nil {
		return 4 * b.signer.SubBatch()
	}
	return 256
}

// PreferredBatch aligns flushes with the engine launch group.
func (b *deviceBackend) PreferredBatch() int {
	if b.signer != nil {
		return b.signer.SubBatch()
	}
	return 64
}

func (b *deviceBackend) Weight() float64 { return b.weight.get() }

// Warm builds (or fetches) the tuned signer and calibrates the dispatch
// weight with one sampled modeled measurement.
func (b *deviceBackend) Warm(key *PrivateKey) error {
	cfg := b.cfg
	cfg.Params, cfg.Device = key.Params, b.dev
	s, err := cachedSigner(cfg, key)
	if err != nil {
		return err
	}
	b.signer = s
	res, err := s.MeasureBatch(key, s.SubBatch(), 1)
	if err != nil {
		return err
	}
	if res.TotalUs > 0 {
		b.weight.seed(float64(s.SubBatch()) / res.TotalUs * 1e6)
	}
	return nil
}

func (b *deviceBackend) RunBatch(ctx context.Context, key *PrivateKey, job *Job) (*BatchOutput, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.signer == nil {
		return nil, fmt.Errorf("service: device backend %s used before Warm", b.dev.Name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.onRun != nil {
		b.onRun()
	}
	switch job.Kind {
	case KindSign:
		res, err := b.signer.SignBatch(key, job.Msgs)
		if err != nil {
			return nil, err
		}
		b.weight.observe(len(job.Msgs), res.TotalUs, res.TotalUs)
		return &BatchOutput{
			Sigs: res.Sigs, BusyUs: res.TotalUs, LaunchOverheadUs: res.LaunchOverheadUs,
		}, nil
	case KindVerify:
		res, err := b.signer.VerifyBatch(&key.PublicKey, job.Msgs, job.Sigs)
		if err != nil {
			return nil, err
		}
		return &BatchOutput{
			OK: res.OK, BusyUs: res.Timeline.TotalUs, LaunchOverheadUs: res.Timeline.LaunchOverheadUs,
		}, nil
	case KindKeyGen:
		res, err := b.signer.KeyGenBatch(job.Seeds)
		if err != nil {
			return nil, err
		}
		return &BatchOutput{Keys: res.Keys, BusyUs: res.Kernel.DurationUs}, nil
	}
	return nil, fmt.Errorf("service: unknown job kind %d", job.Kind)
}
