package hashes

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/params"
)

// backends lists the three SHA-256 routes a Ctx can take, each with the
// function that selects it and returns a restore func.
var backends = []struct {
	name string
	set  func() (restore func())
}{
	{"native", func() func() {
		n, a := sha2.SetNative(true), sha2.SetAccelerated(false)
		return func() { sha2.SetNative(n); sha2.SetAccelerated(a) }
	}},
	{"portable", func() func() {
		n, a := sha2.SetNative(false), sha2.SetAccelerated(false)
		return func() { sha2.SetNative(n); sha2.SetAccelerated(a) }
	}},
	{"stdlib", func() func() {
		a := sha2.SetAccelerated(true)
		return func() { sha2.SetAccelerated(a) }
	}},
}

// chainCase is one ChainLanes input: values, positions and templates.
type chainCase struct {
	vals         []byte
	starts, ends []uint32
	tpls         []address.Address
	perTpl       int
}

// newChainCase builds count chains split over templates of perTpl chains
// each, with random values and random [start, end) ranges in [0, W].
func newChainCase(rng *rand.Rand, p *params.Params, count, perTpl int) chainCase {
	cc := chainCase{
		vals:   make([]byte, count*p.N),
		starts: make([]uint32, count),
		ends:   make([]uint32, count),
		tpls:   make([]address.Address, (count+perTpl-1)/perTpl),
		perTpl: perTpl,
	}
	for i := range cc.vals {
		cc.vals[i] = byte(rng.Uint32())
	}
	for k := range cc.starts {
		a, b := rng.Uint32N(uint32(p.W)+1), rng.Uint32N(uint32(p.W)+1)
		cc.starts[k], cc.ends[k] = min(a, b), max(a, b)
	}
	for t := range cc.tpls {
		cc.tpls[t].SetLayer(uint32(t % 4))
		cc.tpls[t].SetTree(rng.Uint64())
		cc.tpls[t].SetType(address.WOTSHash)
		cc.tpls[t].SetKeyPair(rng.Uint32())
		cc.tpls[t].SetChain(0xdeadbeef) // ignored: the engine sets it
		cc.tpls[t].SetHash(0xdeadbeef)
	}
	return cc
}

// scalarChains is the reference: every chain walked with one scalar F per
// position.
func scalarChains(ctx *Ctx, cc chainCase) []byte {
	n := ctx.P.N
	out := append([]byte(nil), cc.vals...)
	for k := range cc.starts {
		a := cc.tpls[k/cc.perTpl]
		a.SetChain(uint32(k % cc.perTpl))
		v := out[k*n : (k+1)*n]
		for s := cc.starts[k]; s < cc.ends[k]; s++ {
			a.SetHash(s)
			ctx.F(v, v, &a)
		}
	}
	return out
}

// TestChainLanesMatchesScalarF is the differential test of the chain
// engine: for every parameter set and backend, random chain sets of 1 to
// 8*WOTSLen chains (including empty ranges, an all-finished set and a
// single chain) must produce exactly the values and Counters charge of
// per-chain scalar F calls.
func TestChainLanesMatchesScalarF(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 7))
	for _, be := range backends {
		restore := be.set()
		for _, p := range params.AllSets() {
			base := testCtx(t, p)
			maxCount := sha2.Lanes * p.WOTSLen
			var counts []int
			for c := 1; c <= 2*sha2.Lanes+1; c++ {
				counts = append(counts, c)
			}
			for c := 2*sha2.Lanes + 2; c < maxCount; c += 37 {
				counts = append(counts, c)
			}
			counts = append(counts, p.WOTSLen, maxCount)
			for _, count := range counts {
				cc := newChainCase(rng, p, count, p.WOTSLen)
				if count == 3 {
					copy(cc.ends, cc.starts) // all finished before they start
				}
				var cWant, cGot Counters
				want := scalarChains(base.Clone(&cWant), cc)
				got := append([]byte(nil), cc.vals...)
				base.Clone(&cGot).ChainLanes(got, cc.starts, cc.ends, cc.tpls, cc.perTpl)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s count=%d: chain values differ from scalar F", be.name, p.Name, count)
				}
				if cGot != cWant {
					t.Fatalf("%s %s count=%d: counters %+v, scalar charges %+v", be.name, p.Name, count, cGot, cWant)
				}
			}
		}
		restore()
	}
}

// TestChainLanesLeavesLaneCacheStale guards the thashLanes padding cache:
// the engine stages F-shaped blocks in the lane buffers, so a later
// HLanes/FLanes/PRFLanes pass on the same Ctx — even one of the shape the
// lanes held before — must still equal the scalar H/F/PRF.
func TestChainLanesLeavesLaneCacheStale(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, be := range backends {
		restore := be.set()
		for _, p := range params.FastSets() {
			ctx := testCtx(t, p)
			n := p.N
			var adrs [sha2.Lanes]address.Address
			var outs, lefts, rights [sha2.Lanes][]byte
			buf := make([]byte, 3*sha2.Lanes*n)
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
			for i := 0; i < sha2.Lanes; i++ {
				adrs[i] = laneAdrs(i)
				lefts[i] = buf[i*n : (i+1)*n]
				rights[i] = buf[(sha2.Lanes+i)*n : (sha2.Lanes+i+1)*n]
				outs[i] = buf[(2*sha2.Lanes+i)*n : (2*sha2.Lanes+i+1)*n]
			}
			want := make([]byte, n)
			passes := []struct {
				name   string
				lanes  func()
				scalar func(i int, a *address.Address)
			}{
				{"H", func() { ctx.HLanes(sha2.Lanes, &outs, &lefts, &rights, &adrs) },
					func(i int, a *address.Address) { ctx.H(want, lefts[i], rights[i], a) }},
				{"F", func() { ctx.FLanes(sha2.Lanes, &outs, &lefts, &adrs) },
					func(i int, a *address.Address) { ctx.F(want, lefts[i], a) }},
				{"PRF", func() { ctx.PRFLanes(sha2.Lanes, &outs, &adrs) },
					func(i int, a *address.Address) { ctx.PRF(want, a) }},
			}
			for _, pass := range passes {
				ctx.HLanes(sha2.Lanes, &outs, &lefts, &rights, &adrs) // H-shaped lanes
				cc := newChainCase(rng, p, 3*sha2.Lanes, p.WOTSLen)
				ctx.ChainLanes(cc.vals, cc.starts, cc.ends, cc.tpls, cc.perTpl)
				pass.lanes()
				for i := 0; i < sha2.Lanes; i++ {
					a := adrs[i]
					pass.scalar(i, &a)
					if !bytes.Equal(outs[i], want) {
						t.Fatalf("%s %s lane %d: %sLanes after ChainLanes differs from scalar %s", be.name, p.Name, i, pass.name, pass.name)
					}
				}
			}
		}
		restore()
	}
}

// TestChainLanesZeroAlloc: after the first call sizes the schedule arena,
// the engine allocates nothing on any backend.
func TestChainLanesZeroAlloc(t *testing.T) {
	p := params.SPHINCSPlus128f
	cc := newChainCase(rand.New(rand.NewPCG(5, 6)), p, sha2.Lanes*p.WOTSLen, p.WOTSLen)
	for _, be := range backends {
		restore := be.set()
		ctx := testCtx(t, p)
		if allocs := testing.AllocsPerRun(20, func() {
			ctx.ChainLanes(cc.vals, cc.starts, cc.ends, cc.tpls, cc.perTpl)
		}); allocs != 0 {
			t.Errorf("%s: ChainLanes allocates (%v per call)", be.name, allocs)
		}
		restore()
	}
}
