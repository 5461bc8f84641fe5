package sha2

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

func randStatesBlocks(t testing.TB, n int) ([]State256, [][BlockSize256]byte) {
	t.Helper()
	states := make([]State256, n)
	blocks := make([][BlockSize256]byte, n)
	for i := range states {
		var raw [32]byte
		if _, err := rand.Read(raw[:]); err != nil {
			t.Fatal(err)
		}
		for j := range states[i] {
			states[i][j] = uint32(raw[4*j])<<24 | uint32(raw[4*j+1])<<16 |
				uint32(raw[4*j+2])<<8 | uint32(raw[4*j+3])
		}
		if _, err := rand.Read(blocks[i][:]); err != nil {
			t.Fatal(err)
		}
	}
	return states, blocks
}

// TestCompressLanesMatchScalar: the interleaved 4- and 8-lane kernels must
// reproduce the scalar kernel bit-for-bit on random states and blocks.
func TestCompressLanesMatchScalar(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		states, blocks := randStatesBlocks(t, Lanes)
		want := make([]State256, Lanes)
		copy(want, states)
		for l := range want {
			compress256(&want[l], blocks[l][:])
		}

		s4 := make([]State256, Lanes)
		copy(s4, states)
		for l := 0; l < Lanes; l += 4 {
			Compress256x4((*[4]State256)(s4[l:l+4]), (*[4][BlockSize256]byte)(blocks[l:l+4]))
		}
		s8 := make([]State256, Lanes)
		copy(s8, states)
		Compress256x8((*[Lanes]State256)(s8), (*[Lanes][BlockSize256]byte)(blocks))

		for l := 0; l < Lanes; l++ {
			if s4[l] != want[l] {
				t.Fatalf("trial %d: x4 lane %d mismatch", trial, l)
			}
			if s8[l] != want[l] {
				t.Fatalf("trial %d: x8 lane %d mismatch", trial, l)
			}
		}
	}
}

// TestHasher256MatchesOneShot runs the reusable hasher (on whichever
// backend is active, then forced-portable) against crypto/sha256 across
// message lengths spanning several block boundaries.
func TestHasher256MatchesOneShot(t *testing.T) {
	run := func(t *testing.T) {
		var h Hasher256
		for n := 0; n <= 200; n += 7 {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i*3 + n)
			}
			h.Reset()
			h.Write(msg)
			var got [Size256]byte
			h.SumTrunc(got[:])
			want := sha256.Sum256(msg)
			if got != want {
				t.Fatalf("len=%d: %x != %x", n, got, want)
			}
		}
	}
	t.Run("default", run)
	t.Run("portable", func(t *testing.T) {
		prev := SetAccelerated(false)
		defer SetAccelerated(prev)
		run(t)
	})
}

// TestHasher256Midstate checks the seeded-midstate entry point: restarting
// from the state after one block must equal hashing the full message, on
// both backends, including truncated outputs.
func TestHasher256Midstate(t *testing.T) {
	prefix := make([]byte, BlockSize256)
	for i := range prefix {
		prefix[i] = byte(i ^ 0x5a)
	}
	pre := New256()
	pre.Write(prefix)
	mid := pre.Midstate()

	for _, accel := range []bool{true, false} {
		prev := SetAccelerated(accel)
		var h Hasher256
		for _, n := range []int{0, 1, 16, 22, 38, 55, 56, 64, 86, 130} {
			suffix := make([]byte, n)
			for i := range suffix {
				suffix[i] = byte(i + n)
			}
			h.Restart(&mid, BlockSize256)
			h.Write(suffix)
			var got [Size256]byte
			h.SumTrunc(got[:])
			want := sha256.Sum256(append(append([]byte{}, prefix...), suffix...))
			if got != want {
				t.Fatalf("accel=%v len=%d: midstate resume mismatch", accel, n)
			}
			var trunc [16]byte
			h.Restart(&mid, BlockSize256)
			h.Write(suffix)
			h.SumTrunc(trunc[:])
			if !bytes.Equal(trunc[:], want[:16]) {
				t.Fatalf("accel=%v len=%d: truncated sum mismatch", accel, n)
			}
		}
		SetAccelerated(prev)
	}
}

// TestSetAccelerated: disabling always works; enabling only when the
// self-check passed; the previous value round-trips.
func TestSetAccelerated(t *testing.T) {
	orig := Accelerated()
	defer SetAccelerated(orig)

	if prev := SetAccelerated(false); prev != orig {
		t.Fatalf("previous = %v, want %v", prev, orig)
	}
	if Accelerated() {
		t.Fatal("disable did not take effect")
	}
	SetAccelerated(true)
	if Accelerated() != accelAvailable {
		t.Fatalf("enable: got %v, available %v", Accelerated(), accelAvailable)
	}
}

// TestPutDigest256 checks truncated digest serialization against Sum.
func TestPutDigest256(t *testing.T) {
	msg := []byte("putdigest")
	want := Sum256(msg)
	var d Hash256
	d.Reset()
	d.Write(msg)
	// Reconstruct the final state by resuming a padded hash: use Hasher256
	// portable internals instead — simply compare via midstate of a full
	// block is overkill; check word serialization directly.
	s := State256{0x01020304, 0x05060708, 0x090a0b0c, 0x0d0e0f10,
		0x11121314, 0x15161718, 0x191a1b1c, 0x1d1e1f20}
	var out [32]byte
	PutDigest256(out[:], &s)
	wantBytes := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10,
		0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f, 0x20}
	if !bytes.Equal(out[:], wantBytes) {
		t.Fatalf("PutDigest256 = %x", out)
	}
	var trunc [16]byte
	PutDigest256(trunc[:], &s)
	if !bytes.Equal(trunc[:], wantBytes[:16]) {
		t.Fatalf("truncated PutDigest256 = %x", trunc)
	}
	_ = want
}

// refChain is the reference for one message of the fused chain kernel:
// steps rounds of compress256 from seed, PutDigest256 of the first n bytes
// over the value, and a big-endian increment of the hash word.
func refChain(seed State256, blk [BlockSize256]byte, valOff, ctrOff, n, steps int) [BlockSize256]byte {
	for s := 0; s < steps; s++ {
		st := seed
		compress256(&st, blk[:])
		PutDigest256(blk[valOff:valOff+n], &st)
		binary.BigEndian.PutUint32(blk[ctrOff:], binary.BigEndian.Uint32(blk[ctrOff:])+1)
	}
	return blk
}

// TestChain256x2MatchesCompressLoop is the differential test of the fused
// chain kernel: on the native and the portable backend, for every n of
// SPHINCS+, 0 to 2W steps (W = 16), three value/counter layouts and hash
// words that carry into the next byte (0xff -> 0x100) or wrap 2^32 -> 0,
// both blocks must equal the compress256 + PutDigest256 loop.
func TestChain256x2MatchesCompressLoop(t *testing.T) {
	states, blocks := randStatesBlocks(t, 3)
	seed := states[0]
	ctrs := [][2]uint32{{0, 1}, {0x000000ff, 0xfffffffe}, {0xfffffff0, 0x000000f0}, {0xffffffff, 0x0000ffff}}
	for _, native := range []bool{true, false} {
		prev := SetNative(native)
		if Native() != native {
			SetNative(prev)
			t.Logf("native backend not selectable (no SHA-NI, or its self-check failed); checked the portable one only")
			continue
		}
		for _, n := range []int{16, 24, 32} {
			for _, lay := range [][2]int{{22, 18}, {0, 60}, {30, 2}} {
				valOff, ctrOff := lay[0], lay[1]
				for _, ctr := range ctrs {
					for steps := 0; steps <= 32; steps++ {
						b0, b1 := blocks[1], blocks[2]
						binary.BigEndian.PutUint32(b0[ctrOff:], ctr[0])
						binary.BigEndian.PutUint32(b1[ctrOff:], ctr[1])
						want0 := refChain(seed, b0, valOff, ctrOff, n, steps)
						want1 := refChain(seed, b1, valOff, ctrOff, n, steps)
						s := seed
						Chain256x2(&s, &b0, &b1, valOff, ctrOff, n, steps)
						if b0 != want0 || b1 != want1 || s != seed {
							t.Fatalf("native=%v n=%d layout=%v counters=%#x steps=%d: kernel differs from the compress loop",
								native, n, lay, ctr, steps)
						}
					}
				}
			}
		}
		SetNative(prev)
	}
}

// TestChain256x2RejectsBadLayout: a value or counter outside the block, an
// overlap of the two, or an n other than 16/24/32 panics before any kernel
// runs.
func TestChain256x2RejectsBadLayout(t *testing.T) {
	var seed State256
	var b0, b1 [BlockSize256]byte
	for _, c := range []struct{ valOff, ctrOff, n int }{
		{40, 0, 32}, {0, 61, 16}, {-1, 40, 16}, {0, -1, 16}, {22, 18, 20}, {22, 36, 16}, {22, 20, 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("valOff=%d ctrOff=%d n=%d: no panic", c.valOff, c.ctrOff, c.n)
				}
			}()
			Chain256x2(&seed, &b0, &b1, c.valOff, c.ctrOff, c.n, 1)
		}()
	}
}

// TestHasher256ZeroAlloc: the reusable hasher must not allocate per message
// on either backend.
func TestHasher256ZeroAlloc(t *testing.T) {
	for _, accel := range []bool{true, false} {
		prev := SetAccelerated(accel)
		var h Hasher256
		msg := make([]byte, 38)
		var out [16]byte
		pre := New256()
		var block [BlockSize256]byte
		pre.Write(block[:])
		mid := pre.Midstate()
		allocs := testing.AllocsPerRun(200, func() {
			h.Restart(&mid, BlockSize256)
			h.Write(msg)
			h.SumTrunc(out[:])
		})
		SetAccelerated(prev)
		if allocs != 0 {
			t.Fatalf("accel=%v: %v allocs per message", accel, allocs)
		}
	}
}

// --- wall-clock microbenchmarks (lane engine vs scalar) ------------------

func benchLaneInput(b *testing.B) (*[Lanes]State256, *[Lanes][BlockSize256]byte) {
	b.Helper()
	states, blocks := randStatesBlocks(b, Lanes)
	return (*[Lanes]State256)(states), (*[Lanes][BlockSize256]byte)(blocks)
}

// BenchmarkCompress256ScalarX8: eight scalar compressions, the baseline the
// lane kernels are measured against.
func BenchmarkCompress256ScalarX8(b *testing.B) {
	states, blocks := benchLaneInput(b)
	b.SetBytes(Lanes * BlockSize256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for l := 0; l < Lanes; l++ {
			compress256(&states[l], blocks[l][:])
		}
	}
}

// BenchmarkCompress256x8Portable: the interleaved portable lane kernel.
func BenchmarkCompress256x8Portable(b *testing.B) {
	states, blocks := benchLaneInput(b)
	b.SetBytes(Lanes * BlockSize256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress256x8(states, blocks)
	}
}

// BenchmarkHasher256ThashShape measures the full seeded-midstate thash
// shape (restore + 38-byte message + finalize) on the active backend.
func BenchmarkHasher256ThashShape(b *testing.B) {
	var h Hasher256
	var block [BlockSize256]byte
	pre := New256()
	pre.Write(block[:])
	mid := pre.Midstate()
	msg := make([]byte, 38)
	var out [16]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Restart(&mid, BlockSize256)
		h.Write(msg)
		h.SumTrunc(out[:])
	}
}

// BenchmarkHasher256ThashShapePortable is the same shape forced onto the
// portable backend.
func BenchmarkHasher256ThashShapePortable(b *testing.B) {
	prev := SetAccelerated(false)
	defer SetAccelerated(prev)
	BenchmarkHasher256ThashShape(b)
}
