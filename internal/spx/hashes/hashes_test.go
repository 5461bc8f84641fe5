package hashes

import (
	"bytes"
	"testing"

	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/params"
)

func testCtx(t testing.TB, p *params.Params) *Ctx {
	t.Helper()
	pkSeed := make([]byte, p.N)
	skSeed := make([]byte, p.N)
	for i := range pkSeed {
		pkSeed[i] = byte(i + 1)
		skSeed[i] = byte(2*i + 1)
	}
	return NewCtx(p, pkSeed, skSeed)
}

// TestThashMatchesDefinition recomputes thash from first principles:
// Trunc_n(SHA-256(BlockPad(PK.seed) || ADRS_c || M)).
func TestThashMatchesDefinition(t *testing.T) {
	for _, p := range params.FastSets() {
		ctx := testCtx(t, p)
		var adrs address.Address
		adrs.SetType(address.FORSTree)
		adrs.SetTreeIndex(9)
		msg := make([]byte, p.N)
		for i := range msg {
			msg[i] = byte(i * 5)
		}
		got := make([]byte, p.N)
		ctx.F(got, msg, &adrs)

		block := make([]byte, sha2.BlockSize256)
		copy(block, ctx.PKSeed)
		comp := adrs.Compressed()
		h := sha2.New256()
		h.Write(block)
		h.Write(comp[:])
		h.Write(msg)
		want := h.Sum(nil)[:p.N]
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: thash mismatch", p.Name)
		}
	}
}

// TestHEqualsThashOfConcat checks H(left,right) == Thash(left||right).
func TestHEqualsThashOfConcat(t *testing.T) {
	p := params.SPHINCSPlus192f
	ctx := testCtx(t, p)
	var adrs address.Address
	adrs.SetType(address.Tree)
	adrs.SetTreeHeight(2)
	left := bytes.Repeat([]byte{0x11}, p.N)
	right := bytes.Repeat([]byte{0x22}, p.N)

	viaH := make([]byte, p.N)
	ctx.H(viaH, left, right, &adrs)

	viaT := make([]byte, p.N)
	ctx.Thash(viaT, append(append([]byte{}, left...), right...), &adrs)
	if !bytes.Equal(viaH, viaT) {
		t.Fatal("H != Thash(left||right)")
	}
}

// TestPRFDiffersFromThash checks domain separation between PRF (which
// absorbs SK.seed) and thash over the same address.
func TestPRFDiffersFromThash(t *testing.T) {
	p := params.SPHINCSPlus128f
	ctx := testCtx(t, p)
	var adrs address.Address
	adrs.SetType(address.FORSPRF)

	prf := make([]byte, p.N)
	ctx.PRF(prf, &adrs)
	th := make([]byte, p.N)
	ctx.Thash(th, ctx.SKSeed, &adrs)
	if !bytes.Equal(prf, th) {
		// PRF is defined as thash over SK.seed, so these MUST be equal —
		// this is a consistency check of the implementation pair.
		t.Fatal("PRF must equal Thash over SK.seed with the same address")
	}
}

// TestPRFRequiresSecret ensures verify-only contexts reject PRF.
func TestPRFRequiresSecret(t *testing.T) {
	p := params.SPHINCSPlus128f
	ctx := NewCtx(p, make([]byte, p.N), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("PRF on public context must panic")
		}
	}()
	var adrs address.Address
	ctx.PRF(make([]byte, p.N), &adrs)
}

// TestAddressSensitivity: different addresses must give different digests.
func TestAddressSensitivity(t *testing.T) {
	p := params.SPHINCSPlus128f
	ctx := testCtx(t, p)
	msg := make([]byte, p.N)
	out1 := make([]byte, p.N)
	out2 := make([]byte, p.N)

	var a1, a2 address.Address
	a1.SetTreeIndex(1)
	a2.SetTreeIndex(2)
	ctx.F(out1, msg, &a1)
	ctx.F(out2, msg, &a2)
	if bytes.Equal(out1, out2) {
		t.Fatal("address change did not change digest")
	}
}

// TestCountersAttribution checks exact compression accounting for F over
// n=16: one compression past the cached seed block.
func TestCountersAttribution(t *testing.T) {
	p := params.SPHINCSPlus128f
	ctx := testCtx(t, p)
	var c Counters
	ctx.C = &c
	var adrs address.Address
	out := make([]byte, p.N)
	msg := make([]byte, p.N)
	ctx.F(out, msg, &adrs)
	// Message past midstate: 22 (adrs) + 16 = 38 bytes; padded total with
	// the seed block: 64+38+9 <= 128 -> 2 blocks, minus the cached one = 1.
	if c.Compress256 != 1 || c.Thash != 1 {
		t.Fatalf("counters = %+v, want 1 compression / 1 thash", c)
	}
	ctx.H(out, msg, msg, &adrs)
	// 22+32 = 54 past midstate: 64+54+9 = 127 -> 2 blocks -> 1 charged.
	if c.Compress256 != 2 {
		t.Fatalf("H charged %d compressions total, want 2", c.Compress256)
	}
	ctx.PRF(out, &adrs)
	if c.PRF != 1 {
		t.Fatalf("PRF count = %d", c.PRF)
	}
}

// TestCountersAddAndReset covers the aggregation helpers.
func TestCountersAddAndReset(t *testing.T) {
	a := Counters{Compress256: 3, Thash: 2, PRF: 1, Bytes: 100}
	b := Counters{Compress256: 7, Compress512: 1, Thash: 5, Bytes: 50}
	a.Add(&b)
	if a.Compress256 != 10 || a.Compress512 != 1 || a.Thash != 7 || a.Bytes != 150 {
		t.Fatalf("Add: %+v", a)
	}
	a.Reset()
	if a != (Counters{}) {
		t.Fatal("Reset did not zero")
	}
}

// TestCloneIsolation: cloned contexts share key material but not counters
// or scratch space. Once the base has borrowed every scratch arena, a
// clone's arenas must still be its own.
func TestCloneIsolation(t *testing.T) {
	p := params.SPHINCSPlus128f
	base := testCtx(t, p)
	arenas := func(c *Ctx) []any { // each arena's first element
		return []any{
			&c.WOTSPKBuf()[0], &c.WOTSLengthsBuf()[0], &c.IndicesBuf()[0],
			&c.ForsLevelBuf()[0], &c.ForsRootsBuf()[0], &c.XMSSLevelBuf()[0], &c.XMSSNodeBuf()[0],
			&c.WOTSPKBatchBuf(1)[0], &c.WOTSLengthsBatchBuf(1)[0], &c.IndicesBatchBuf(1)[0],
			&c.ForsRootsBatchBuf(1)[0], &c.chainOrderBuf([]uint32{0}, []uint32{1})[0],
		}
	}
	baseArenas := arenas(base)
	var c1, c2 Counters
	d1 := base.Clone(&c1)
	d2 := base.Clone(&c2)
	for i, a := range arenas(d1) {
		if a == baseArenas[i] {
			t.Fatalf("clone shares scratch arena %d with its base", i)
		}
	}
	var adrs address.Address
	out := make([]byte, p.N)
	d1.F(out, make([]byte, p.N), &adrs)
	if c1.Thash != 1 || c2.Thash != 0 {
		t.Fatal("clone counters not isolated")
	}
	// Same inputs must give the same output on both clones.
	out2 := make([]byte, p.N)
	d2.F(out2, make([]byte, p.N), &adrs)
	if !bytes.Equal(out, out2) {
		t.Fatal("clones disagree functionally")
	}
}

// TestHMsgModeSwitch checks the SHA-512 message-hash option changes the
// digest at levels 3/5 and not at level 1.
func TestHMsgModeSwitch(t *testing.T) {
	msg := []byte("mode switch")
	for _, tc := range []struct {
		p      *params.Params
		differ bool
	}{
		{params.SPHINCSPlus128f, false},
		{params.SPHINCSPlus192f, true},
		{params.SPHINCSPlus256f, true},
	} {
		r := make([]byte, tc.p.N)
		seed := make([]byte, tc.p.N)
		root := make([]byte, tc.p.N)
		d256 := HMsg(tc.p, r, seed, root, msg)
		d512 := HMsg(tc.p.WithMode(params.SHA512Msg), r, seed, root, msg)
		if tc.differ && bytes.Equal(d256, d512) {
			t.Errorf("%s: SHA512Msg mode should change H_msg", tc.p.Name)
		}
		if !tc.differ && !bytes.Equal(d256, d512) {
			t.Errorf("%s: SHA512Msg must not apply at level 1", tc.p.Name)
		}
		if len(d256) != tc.p.DigestBytes {
			t.Errorf("%s: digest length %d", tc.p.Name, len(d256))
		}
	}
}

// TestPRFMsgModes mirrors TestHMsgModeSwitch for the randomizer.
func TestPRFMsgModes(t *testing.T) {
	p := params.SPHINCSPlus256f
	skPRF := make([]byte, p.N)
	opt := make([]byte, p.N)
	msg := []byte("r")
	r256 := PRFMsg(p, skPRF, opt, msg)
	r512 := PRFMsg(p.WithMode(params.SHA512Msg), skPRF, opt, msg)
	if len(r256) != p.N || len(r512) != p.N {
		t.Fatal("randomizer length")
	}
	if bytes.Equal(r256, r512) {
		t.Fatal("PRF_msg mode switch had no effect at level 5")
	}
}

// TestDigestLayoutBytes checks the m = md || tree || leaf split sizes the
// paper's parameter table implies (34/42/49 bytes for the -f sets).
func TestDigestLayoutBytes(t *testing.T) {
	want := map[string][3]int{
		"SPHINCS+-128f": {25, 8, 1},
		"SPHINCS+-192f": {33, 8, 1},
		"SPHINCS+-256f": {40, 8, 1},
	}
	for _, p := range params.FastSets() {
		w := want[p.Name]
		if p.MDBytes != w[0] || p.TreeIdxBytes != w[1] || p.LeafIdxBytes != w[2] {
			t.Errorf("%s: layout %d/%d/%d, want %v",
				p.Name, p.MDBytes, p.TreeIdxBytes, p.LeafIdxBytes, w)
		}
	}
}
