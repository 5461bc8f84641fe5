package hashes

import (
	"bytes"
	"testing"

	"herosign/internal/sha2"
	"herosign/internal/sha2/sha2test"
	"herosign/internal/spx/address"
	"herosign/internal/spx/params"
)

// laneAdrs builds a distinct address for lane i.
func laneAdrs(i int) address.Address {
	var a address.Address
	a.SetLayer(uint32(i % 3))
	a.SetTree(uint64(1000 + i))
	a.SetType(address.FORSTree)
	a.SetTreeHeight(uint32(i % 5))
	a.SetTreeIndex(uint32(77 * i))
	return a
}

// TestLanesMatchScalar checks FLanes/HLanes/PRFLanes against the scalar
// F/H/PRF calls for every lane count and every parameter size, on every
// backend.
func TestLanesMatchScalar(t *testing.T) {
	sha2test.Each(t, func(t *testing.T) {
		for _, p := range params.FastSets() {
			ctx := testCtx(t, p)
			n := p.N
			for count := 1; count <= sha2.Lanes; count++ {
				var adrs [sha2.Lanes]address.Address
				var outs, ins, lefts, rights [sha2.Lanes][]byte
				inBuf := make([]byte, sha2.Lanes*n)
				rBuf := make([]byte, sha2.Lanes*n)
				outBuf := make([]byte, sha2.Lanes*n)
				for i := 0; i < count; i++ {
					adrs[i] = laneAdrs(i)
					ins[i] = inBuf[i*n : (i+1)*n]
					lefts[i] = ins[i]
					rights[i] = rBuf[i*n : (i+1)*n]
					outs[i] = outBuf[i*n : (i+1)*n]
					for j := 0; j < n; j++ {
						ins[i][j] = byte(i*31 + j)
						rights[i][j] = byte(i*17 + j + 3)
					}
				}

				want := make([]byte, n)
				ctx.FLanes(count, &outs, &ins, &adrs)
				for i := 0; i < count; i++ {
					a := adrs[i]
					ctx.F(want, ins[i], &a)
					if !bytes.Equal(outs[i], want) {
						t.Fatalf("%s count=%d lane=%d: FLanes mismatch", p.Name, count, i)
					}
				}

				ctx.HLanes(count, &outs, &lefts, &rights, &adrs)
				for i := 0; i < count; i++ {
					a := adrs[i]
					ctx.H(want, lefts[i], rights[i], &a)
					if !bytes.Equal(outs[i], want) {
						t.Fatalf("%s count=%d lane=%d: HLanes mismatch", p.Name, count, i)
					}
				}

				ctx.PRFLanes(count, &outs, &adrs)
				for i := 0; i < count; i++ {
					a := adrs[i]
					ctx.PRF(want, &a)
					if !bytes.Equal(outs[i], want) {
						t.Fatalf("%s count=%d lane=%d: PRFLanes mismatch", p.Name, count, i)
					}
				}
			}
		}
	})
}

// TestBackendsAgree: scalar thash outputs must be identical on every
// backend for every shape (F, H, T_l, PRF).
func TestBackendsAgree(t *testing.T) {
	for _, p := range params.AllSets() {
		ctx := testCtx(t, p)
		a := laneAdrs(4)
		long := make([]byte, p.WOTSLen*p.N) // the T_len shape
		for i := range long {
			long[i] = byte(i * 7)
		}
		var first []byte
		for _, be := range sha2.Backends() {
			sha2test.Pin(t, be)
			out := make([]byte, 4*p.N) // F || T_len || H || PRF
			ctx.F(out[:p.N], long[:p.N], &a)
			ctx.Thash(out[p.N:2*p.N], long, &a)
			ctx.H(out[2*p.N:3*p.N], long[:p.N], long[p.N:2*p.N], &a)
			ctx.PRF(out[3*p.N:], &a)
			if first == nil {
				first = out
			} else if !bytes.Equal(out, first) {
				t.Fatalf("%s: backend %v disagrees with %v", p.Name, be, sha2.Backends()[0])
			}
		}
	}
}

// TestLaneCountersMatchScalar: lane batching must charge exactly the
// counters the equivalent scalar calls charge — the invariant that keeps
// the simulator's modeled metrics independent of host batching.
func TestLaneCountersMatchScalar(t *testing.T) {
	p := params.SPHINCSPlus128f
	n := p.N
	base := testCtx(t, p)

	var cLane, cScalar Counters
	lane := base.Clone(&cLane)
	scalar := base.Clone(&cScalar)

	const count = 7
	var adrs [sha2.Lanes]address.Address
	var outs, ins [sha2.Lanes][]byte
	buf := make([]byte, sha2.Lanes*n)
	out := make([]byte, sha2.Lanes*n)
	for i := 0; i < count; i++ {
		adrs[i] = laneAdrs(i)
		ins[i] = buf[i*n : (i+1)*n]
		outs[i] = out[i*n : (i+1)*n]
	}
	lane.FLanes(count, &outs, &ins, &adrs)
	lane.PRFLanes(count, &outs, &adrs)

	tmp := make([]byte, n)
	for i := 0; i < count; i++ {
		a := adrs[i]
		scalar.F(tmp, ins[i], &a)
	}
	for i := 0; i < count; i++ {
		a := adrs[i]
		scalar.PRF(tmp, &a)
	}
	if cLane != cScalar {
		t.Fatalf("lane counters %+v != scalar counters %+v", cLane, cScalar)
	}
}

// TestThashZeroAlloc: the satellite regression — zero allocations per
// thash (F, H, T_l, PRF) on every backend after warm-up.
func TestThashZeroAlloc(t *testing.T) {
	sha2test.Each(t, func(t *testing.T) {
		p := params.SPHINCSPlus128f
		ctx := testCtx(t, p)
		a := laneAdrs(2)
		in := make([]byte, p.N)
		in2 := make([]byte, p.N)
		long := make([]byte, p.WOTSLen*p.N)
		out := make([]byte, p.N)
		check := func(name string, f func()) {
			if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
				t.Errorf("%s: %v allocs per call", name, allocs)
			}
		}
		check("F", func() { ctx.F(out, in, &a) })
		check("H", func() { ctx.H(out, in, in2, &a) })
		check("T_len", func() { ctx.Thash(out, long, &a) })
		check("PRF", func() { ctx.PRF(out, &a) })
	})
}

// TestMessageToIndicesIntoMatches: the Into variant equals the allocating
// variant and performs no allocation.
func TestMessageToIndicesIntoMatches(t *testing.T) {
	for _, p := range params.FastSets() {
		md := make([]byte, p.MDBytes)
		for i := range md {
			md[i] = byte(i*13 + 5)
		}
		want := MessageToIndices(p, md)
		dst := make([]uint32, p.K)
		got := MessageToIndicesInto(p, dst, md)
		if len(got) != len(want) {
			t.Fatalf("%s: length mismatch", p.Name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: index %d mismatch", p.Name, i)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() {
			MessageToIndicesInto(p, dst, md)
		}); allocs != 0 {
			t.Errorf("%s: MessageToIndicesInto allocates (%v)", p.Name, allocs)
		}
	}
}

// --- wall-clock microbenchmarks ------------------------------------------

func benchLaneSetup(b *testing.B, p *params.Params) (*Ctx, *[sha2.Lanes][]byte, *[sha2.Lanes][]byte, *[sha2.Lanes]address.Address) {
	b.Helper()
	pkSeed := make([]byte, p.N)
	skSeed := make([]byte, p.N)
	ctx := NewCtx(p, pkSeed, skSeed)
	var outs, ins [sha2.Lanes][]byte
	var adrs [sha2.Lanes]address.Address
	buf := make([]byte, sha2.Lanes*p.N)
	out := make([]byte, sha2.Lanes*p.N)
	for i := 0; i < sha2.Lanes; i++ {
		adrs[i] = laneAdrs(i)
		ins[i] = buf[i*p.N : (i+1)*p.N]
		outs[i] = out[i*p.N : (i+1)*p.N]
	}
	return ctx, &outs, &ins, &adrs
}

// BenchmarkThashF: one scalar F call (per-hash cost of the active backend).
func BenchmarkThashF(b *testing.B) {
	p := params.SPHINCSPlus128f
	ctx, outs, ins, adrs := benchLaneSetup(b, p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.F(outs[0], ins[0], &adrs[0])
	}
}

// BenchmarkThashFPortable pins the portable backend's scalar fast path.
func BenchmarkThashFPortable(b *testing.B) {
	sha2test.Pin(b, sha2.PortableBackend)
	BenchmarkThashF(b)
}

// BenchmarkFLanes8 measures 8 F evaluations per multi-lane pass; compare
// ns/op divided by 8 against BenchmarkThashF.
func BenchmarkFLanes8(b *testing.B) {
	p := params.SPHINCSPlus128f
	ctx, outs, ins, adrs := benchLaneSetup(b, p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.FLanes(sha2.Lanes, outs, ins, adrs)
	}
}

// BenchmarkFLanes8Portable: the portable interleaved kernel under the same
// batched shape.
func BenchmarkFLanes8Portable(b *testing.B) {
	sha2test.Pin(b, sha2.PortableBackend)
	BenchmarkFLanes8(b)
}
