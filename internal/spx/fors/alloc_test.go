package fors

import (
	"testing"

	"herosign/internal/sha2/sha2test"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
)

// TestTreeRootZeroAlloc: a full lane-batched FORS tree build (leaves plus
// every reduction level, including the HReduceLevel address callbacks) must
// not allocate after warm-up, on any backend.
func TestTreeRootZeroAlloc(t *testing.T) {
	p := params.SPHINCSPlus128f
	pkSeed := make([]byte, p.N)
	skSeed := make([]byte, p.N)
	ctx := hashes.NewCtx(p, pkSeed, skSeed)
	var adrs address.Address
	adrs.SetType(address.FORSTree)
	root := make([]byte, p.N)
	auth := make([]byte, p.LogT*p.N)

	sha2test.Each(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(5, func() {
			TreeRoot(ctx, root, &adrs, 2, 13, auth)
		}); allocs != 0 {
			t.Errorf("TreeRoot allocates (%v)", allocs)
		}
	})
}
