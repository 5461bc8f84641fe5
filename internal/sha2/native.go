package sha2

import "encoding/binary"

// nativeSelfCheck gates NativeBackend: it proves the SHA-NI kernels
// reproduce the portable scalar kernel bit-for-bit. The native backend needs
// no marshal/unmarshal round-trip to reach a midstate — a profile of the
// verify hot loop shows the actual block compression is ~a quarter of the
// stdlib path's cost, the rest being digest plumbing — so it is preferred
// wherever the CPU supports it.
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
	return true
}
