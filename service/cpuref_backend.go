package service

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"herosign/internal/cpuref"
	"herosign/internal/spx"
)

// cpurefBackend executes batches on the host CPU through the multi-goroutine
// lane-engine reference implementation. Unlike the simulated device
// backends, its BusyUs is measured wall time, so a mixed fleet dispatches on
// real CPU throughput versus modeled GPU throughput — both in sigs/s.
type cpurefBackend struct {
	threads int
	weight  weightMeter
	// busy charges overlapping batches — the pool runs two at once on the
	// same cores — for their effective time, in BusyUs and in the weight.
	busy BusyClock

	// Hypertree memoization (NewCPURefBackendMemo): all worker goroutines
	// share one per-key cache, built — and, when memoWarm is set, fully
	// prebuilt — inside Warm, so the router never reports the shard
	// available before the fast path exists.
	memoBytes int64
	memoWarm  bool
	cache     *spx.TreeCache

	// Persistent lane-batched verification contexts for the shard key,
	// built in Warm so steady-state verify batches reuse warm arenas.
	verifier *cpuref.BatchVerifier
}

// NewCPURefBackend wraps the real-CPU lane-engine signer as a Backend with
// the given worker-goroutine count (<= 0 selects GOMAXPROCS). Signatures
// are byte-identical to the simulated backends' — only scheduling and
// throughput differ.
func NewCPURefBackend(threads int) Backend {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &cpurefBackend{threads: threads}
}

// NewCPURefBackendMemo is NewCPURefBackend with a per-key hypertree
// memoization cache of at most memoBytes shared by all workers. With warm
// set, Warm prebuilds the pinned top layers before the backend serves —
// moving warm-up off the request path — so the first request already hits;
// otherwise they fill lazily. memoBytes <= 0 disables memoization.
func NewCPURefBackendMemo(threads int, memoBytes int64, warm bool) Backend {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &cpurefBackend{threads: threads, memoBytes: memoBytes, memoWarm: warm}
}

func (b *cpurefBackend) Name() string {
	if b.memoBytes > 0 {
		return fmt.Sprintf("cpuref-%dt-memo", b.threads)
	}
	return fmt.Sprintf("cpuref-%dt", b.threads)
}

func (b *cpurefBackend) Capacity() int { return 8 * b.threads }

// PreferredBatch keeps every worker goroutine busy for a few messages per
// flush without stretching coalescing latency.
func (b *cpurefBackend) PreferredBatch() int { return 4 * b.threads }

func (b *cpurefBackend) Weight() float64 { return b.weight.get() }

// Warm builds (and, when configured, prebuilds) the hypertree memoization
// cache for the shard key, then calibrates the dispatch weight by timing
// one real signature and scaling by the worker count (batched signing
// parallelizes linearly until the cores run out). The router calls Warm
// before starting the backend's pool, so cache prebuild completes before
// the shard is reported available and the first request already takes the
// fast path.
func (b *cpurefBackend) Warm(key *PrivateKey) error {
	if b.memoBytes > 0 {
		b.cache = spx.NewTreeCache(key, b.memoBytes)
		if b.memoWarm {
			b.cache.Warm(b.threads)
		}
	}
	b.verifier = cpuref.NewBatchVerifier(&key.PublicKey)
	signer, err := spx.NewSignerWithCache(key, b.cache)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := signer.Sign([]byte("herosign-cpuref-warm"), nil); err != nil {
		return err
	}
	perSig := time.Since(start)
	if perSig > 0 {
		b.weight.seed(float64(b.threads) / perSig.Seconds())
	}
	return nil
}

// MemoStats implements MemoReporter; the second return is false when the
// backend was built without memoization.
func (b *cpurefBackend) MemoStats() (MemoStats, bool) {
	if b.cache == nil {
		return MemoStats{}, false
	}
	s := b.cache.Stats()
	return MemoStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		WOTSHits: s.WOTSHits, WOTSFills: s.WOTSFills,
		ResidentBytes: s.ResidentBytes, BudgetBytes: s.BudgetBytes,
		PinnedLayers: s.PinnedLayers, Entries: s.Entries,
		WarmedEntries: s.WarmedEntries,
	}, true
}

func (b *cpurefBackend) RunBatch(ctx context.Context, key *PrivateKey, job *Job) (*BatchOutput, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch job.Kind {
	case KindSign:
		sigs, res, err := cpuref.SignBatchCached(key, job.Msgs, b.threads, b.cache)
		if err != nil {
			return nil, err
		}
		effUs := b.charge(res.Elapsed)
		b.weight.observe(len(job.Msgs), float64(res.Elapsed.Microseconds()), effUs)
		return &BatchOutput{Sigs: sigs, BusyUs: effUs}, nil
	case KindVerify:
		// Lane-batched across signatures via the persistent verifier pool
		// built in Warm (a one-shot pool covers direct RunBatch callers).
		bv := b.verifier
		if bv == nil {
			bv = cpuref.NewBatchVerifier(&key.PublicKey)
		}
		ok, res, err := bv.VerifyBatch(job.Msgs, job.Sigs, b.threads)
		if err != nil {
			return nil, err
		}
		return &BatchOutput{OK: ok, BusyUs: b.charge(res.Elapsed)}, nil
	case KindKeyGen:
		skSeeds := make([][]byte, len(job.Seeds))
		skPRFs := make([][]byte, len(job.Seeds))
		pkSeeds := make([][]byte, len(job.Seeds))
		for i, s := range job.Seeds {
			skSeeds[i], skPRFs[i], pkSeeds[i] = s.SKSeed, s.SKPRF, s.PKSeed
		}
		keys, res, err := cpuref.KeyGenBatch(key.Params, skSeeds, skPRFs, pkSeeds, b.threads)
		if err != nil {
			return nil, err
		}
		return &BatchOutput{Keys: keys, BusyUs: b.charge(res.Elapsed)}, nil
	}
	return nil, fmt.Errorf("service: unknown job kind %d", job.Kind)
}

// charge books a batch that just finished after running for elapsed on the
// backend's busy clock and returns its effective time in microseconds.
func (b *cpurefBackend) charge(elapsed time.Duration) float64 {
	end := time.Now()
	return float64(b.busy.Charge(end.Add(-elapsed), end).Microseconds())
}
