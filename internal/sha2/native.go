package sha2

import "encoding/binary"

// Native SHA-NI backend selection.
//
// The third lane-engine backend (after the portable interleaved kernels and
// the stdlib streaming path): direct SHA extension compression on raw
// chaining states. Unlike the stdlib path it needs no marshal/unmarshal
// round-trip to reach a midstate — a profile of the verify hot loop shows
// the actual block compression is ~a quarter of the stdlib path's cost, the
// rest being digest plumbing — so it is the preferred backend wherever the
// CPU supports it. Compress256/x4/x8 dispatch on it transparently; the
// multi-lane entry points pair lanes through the two-message interleaved
// kernel to cover the SHA256RNDS2 latency chain.

// native256 routes the Compress256 entry points through the SHA-NI kernels.
// Mutated only by SetNative (benchmarks/tests); the hot path reads it
// without synchronization, so toggling must not race with hashing.
var native256 = nativeSelfCheck()

// nativeAvailable records the init-time self-check result; SetNative can
// never enable a backend that failed it.
var nativeAvailable bool

// Native reports whether compression is currently routed through the native
// SHA extension kernels.
func Native() bool { return native256 }

// SetNative forces the native-kernel choice for benchmarks and equivalence
// tests and reports the previous setting. Enabling is a no-op when the
// init-time self-check failed. Not safe to call concurrently with hashing.
func SetNative(enable bool) (previous bool) {
	previous = native256
	native256 = enable && nativeAvailable
	return previous
}

// nativeSelfCheck proves the SHA-NI kernels reproduce the portable scalar
// kernel bit-for-bit before they can be selected. Any mismatch silently
// keeps the portable/stdlib backends.
func nativeSelfCheck() bool {
	if !nativeProbe() {
		return false
	}
	var blocks [2][BlockSize256]byte
	for l := range blocks {
		for i := range blocks[l] {
			blocks[l][i] = byte(i*7 + l*13 + 1)
		}
	}
	want := [2]State256{iv256, iv256}
	got := want
	for round := 0; round < 2; round++ { // second round: non-IV midstates
		compress256(&want[0], blocks[0][:])
		compress256(&want[1], blocks[1][:])
		sha256ni(&got[0], &blocks[0])
		sha256ni(&got[1], &blocks[1])
		if got != want {
			return false
		}
		compress256(&want[0], blocks[1][:])
		compress256(&want[1], blocks[0][:])
		sha256ni2(&got[0], &got[1], &blocks[1], &blocks[0])
		if got != want {
			return false
		}
	}
	// The fused chain kernel from a non-IV seed, for every n SPHINCS+ uses,
	// across hash-word carries (0xff -> 0x100, 0xffffffff -> 0), in two
	// layouts: the value after the counter (the SPHINCS+ F block: counter
	// at 18, value at 22) and the counter after the value.
	for _, n := range []int{16, 24, 32} {
		for _, lay := range [][2]int{{22, 18}, {0, 60}} {
			valOff, ctrOff := lay[0], lay[1]
			wantB := blocks
			for l, ctr := range []uint32{0x000000fe, 0xfffffffe} {
				binary.BigEndian.PutUint32(wantB[l][ctrOff:], ctr)
			}
			gotB := wantB
			chain256(&want[0], &wantB[0], valOff, ctrOff, n, 3)
			chain256(&want[0], &wantB[1], valOff, ctrOff, n, 3)
			sha256niChain2(&want[0], &gotB[0], &gotB[1], valOff, ctrOff, n, 3)
			if gotB != wantB {
				return false
			}
		}
	}
	nativeAvailable = true
	return true
}
