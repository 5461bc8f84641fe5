// Package cpuref provides the CPU-side comparators for the paper's Table X.
//
// The paper compares HERO-Sign against the AVX2 implementation of
// SPHINCS+ [1] in single-threaded and 16-thread configurations. That code
// and its Xeon testbed are outside this reproduction, so the table is
// regenerated two ways:
//
//   - the paper's published AVX2 throughput numbers, embedded as constants;
//   - a real measured multi-goroutine batch signer built on the pure-Go
//     reference implementation, so the GPU-vs-CPU orders of magnitude can
//     be checked against an actually-executed baseline on the build machine.
package cpuref

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// PaperAVX2KOPS holds Table X's published throughput (kilo-signatures per
// second) keyed by parameter-set name.
var PaperAVX2KOPS = map[string]struct{ SingleThread, Threads16 float64 }{
	"SPHINCS+-128f": {0.143, 0.828},
	"SPHINCS+-192f": {0.087, 0.560},
	"SPHINCS+-256f": {0.044, 0.356},
}

// Result reports one measured CPU batch run.
type Result struct {
	Params   *params.Params
	Threads  int
	Messages int
	Elapsed  time.Duration
	KOPS     float64
}

// SignBatch signs msgs with `threads` worker goroutines (threads <= 0
// selects GOMAXPROCS) and reports measured throughput. Signatures are
// returned in message order. Each worker holds one reusable spx.Signer so
// the seeded midstate, lane engine and scratch arenas are set up once per
// worker, not once per message.
func SignBatch(sk *spx.PrivateKey, msgs [][]byte, threads int) ([][]byte, *Result, error) {
	return SignBatchCached(sk, msgs, threads, nil)
}

// SignBatchCached is SignBatch with every worker sharing one hypertree
// memoization cache for the key (nil cache selects the plain path).
// Signatures are byte-identical with and without the cache.
func SignBatchCached(sk *spx.PrivateKey, msgs [][]byte, threads int, cache *spx.TreeCache) ([][]byte, *Result, error) {
	if len(msgs) == 0 {
		// Avoid clamping threads to zero (no workers would ever run) and a
		// 0/0 KOPS division: an empty batch is a zeroed result, not NaN.
		return [][]byte{}, &Result{Params: sk.Params}, nil
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > len(msgs) {
		threads = len(msgs)
	}
	sigs := make([][]byte, len(msgs))
	errs := make([]error, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			signer, err := spx.NewSignerWithCache(sk, cache)
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < len(msgs); i += threads {
				sig, err := signer.Sign(msgs[i], nil)
				if err != nil {
					errs[w] = err
					return
				}
				sigs[i] = sig
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	res := &Result{
		Params:   sk.Params,
		Threads:  threads,
		Messages: len(msgs),
		Elapsed:  elapsed,
		KOPS:     float64(len(msgs)) / elapsed.Seconds() / 1000,
	}
	return sigs, res, nil
}

// VerifyBatch checks msgs[i] against sigs[i] with `threads` worker
// goroutines (threads <= 0 selects GOMAXPROCS). A malformed or forged
// signature yields ok[i] == false; only infrastructure failures return an
// error. Each worker holds one reusable spx.Verifier over a contiguous
// sub-batch, so the hash work of up to sha2.Lanes signatures shares
// multi-lane compression passes; verdicts are identical to the scalar path.
func VerifyBatch(pk *spx.PublicKey, msgs, sigs [][]byte, threads int) ([]bool, *Result, error) {
	return NewBatchVerifier(pk).VerifyBatch(msgs, sigs, threads)
}

// BatchVerifier pools reusable spx.Verifier contexts for one public key so
// repeated VerifyBatch calls — the service steady state — hand every worker
// a warm context instead of rebuilding arenas per request. Safe for
// concurrent use.
type BatchVerifier struct {
	pk   *spx.PublicKey
	mu   sync.Mutex
	free []*spx.Verifier
}

// NewBatchVerifier builds an empty pool for pk; verifier contexts are
// created on first use and retained afterwards.
func NewBatchVerifier(pk *spx.PublicKey) *BatchVerifier {
	return &BatchVerifier{pk: pk}
}

func (bv *BatchVerifier) get() *spx.Verifier {
	bv.mu.Lock()
	if n := len(bv.free); n > 0 {
		v := bv.free[n-1]
		bv.free = bv.free[:n-1]
		bv.mu.Unlock()
		return v
	}
	bv.mu.Unlock()
	return spx.NewVerifier(bv.pk)
}

func (bv *BatchVerifier) put(v *spx.Verifier) {
	bv.mu.Lock()
	bv.free = append(bv.free, v)
	bv.mu.Unlock()
}

// VerifyBatch checks msgs[i] against sigs[i] with `threads` workers, each
// holding a pooled spx.Verifier over a contiguous sub-batch so lane groups
// form across neighbouring signatures.
func (bv *BatchVerifier) VerifyBatch(msgs, sigs [][]byte, threads int) ([]bool, *Result, error) {
	if len(msgs) != len(sigs) {
		return nil, nil, fmt.Errorf("cpuref: %d messages but %d signatures", len(msgs), len(sigs))
	}
	if len(msgs) == 0 {
		return []bool{}, &Result{Params: bv.pk.Params}, nil
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > len(msgs) {
		threads = len(msgs)
	}
	ok := make([]bool, len(msgs))
	span := (len(msgs) + threads - 1) / threads
	var wg sync.WaitGroup
	start := time.Now()
	for lo := 0; lo < len(msgs); lo += span {
		hi := lo + span
		if hi > len(msgs) {
			hi = len(msgs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			v := bv.get()
			v.VerifyBatch(ok[lo:hi], msgs[lo:hi], sigs[lo:hi])
			bv.put(v)
		}(lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := &Result{
		Params:   bv.pk.Params,
		Threads:  threads,
		Messages: len(msgs),
		Elapsed:  elapsed,
		KOPS:     float64(len(msgs)) / elapsed.Seconds() / 1000,
	}
	return ok, res, nil
}

// KeyGenBatch derives one key pair per seed triple with `threads` worker
// goroutines. Keys are byte-identical to spx.KeyFromSeeds.
func KeyGenBatch(p *params.Params, skSeeds, skPRFs, pkSeeds [][]byte, threads int) ([]*spx.PrivateKey, *Result, error) {
	n := len(skSeeds)
	if len(skPRFs) != n || len(pkSeeds) != n {
		return nil, nil, fmt.Errorf("cpuref: seed component counts differ: %d/%d/%d",
			len(skSeeds), len(skPRFs), len(pkSeeds))
	}
	if n == 0 {
		return []*spx.PrivateKey{}, &Result{Params: p}, nil
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	keys := make([]*spx.PrivateKey, n)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += threads {
				sk, err := spx.KeyFromSeeds(p, skSeeds[i], skPRFs[i], pkSeeds[i])
				if err != nil {
					errs[w] = err
					return
				}
				keys[i] = sk
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	res := &Result{
		Params:   p,
		Threads:  threads,
		Messages: n,
		Elapsed:  elapsed,
		KOPS:     float64(n) / elapsed.Seconds() / 1000,
	}
	return keys, res, nil
}
