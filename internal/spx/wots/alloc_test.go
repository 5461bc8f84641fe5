package wots

import (
	"testing"

	"herosign/internal/sha2/sha2test"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
)

// TestChainStepZeroAlloc: the satellite regression — advancing a WOTS+
// chain by one F step must not allocate, on any backend, and neither
// must a whole batched PKGen or Sign after warm-up.
func TestChainStepZeroAlloc(t *testing.T) {
	p := params.SPHINCSPlus128f
	pkSeed := make([]byte, p.N)
	skSeed := make([]byte, p.N)
	ctx := hashes.NewCtx(p, pkSeed, skSeed)

	var adrs address.Address
	adrs.SetType(address.WOTSHash)
	adrs.SetKeyPair(3)
	adrs.SetChain(5)
	node := make([]byte, p.N)
	sig := make([]byte, p.WOTSBytes)
	msg := make([]byte, p.N)
	out := make([]byte, p.N)

	sha2test.Each(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(100, func() {
			GenChain(ctx, node, node, 0, 1, &adrs)
		}); allocs != 0 {
			t.Errorf("GenChain step allocates (%v)", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			Sign(ctx, sig, msg, &adrs)
		}); allocs != 0 {
			t.Errorf("Sign allocates (%v)", allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			PKGen(ctx, out, &adrs)
		}); allocs != 0 {
			t.Errorf("PKGen allocates (%v)", allocs)
		}
	})
}

// TestMaxLenCoversAllSets enforces the wotsMaxLen invariant the batched
// stack arrays rely on: every registered parameter set must fit.
func TestMaxLenCoversAllSets(t *testing.T) {
	for _, p := range params.AllSets() {
		if p.WOTSLen > wotsMaxLen {
			t.Errorf("%s: WOTSLen %d exceeds wotsMaxLen %d", p.Name, p.WOTSLen, wotsMaxLen)
		}
	}
}

// BenchmarkPKGen measures one full lane-batched WOTS+ public-key
// generation (all chains to their end plus T_len).
func BenchmarkPKGen(b *testing.B) {
	p := params.SPHINCSPlus128f
	pkSeed := make([]byte, p.N)
	skSeed := make([]byte, p.N)
	ctx := hashes.NewCtx(p, pkSeed, skSeed)
	var adrs address.Address
	adrs.SetType(address.WOTSHash)
	out := make([]byte, p.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PKGen(ctx, out, &adrs)
	}
}
