//go:build !amd64

package sha2

// Non-amd64 platforms have no native kernel; the probe keeps the portable
// (or stdlib-accelerated) backends selected. The kernel stubs are functional
// so that callers need no build-tag awareness, but they are unreachable
// while nativeProbe reports false.

func nativeProbe() bool { return false }

func sha256ni(state *State256, block *[BlockSize256]byte) {
	compress256(state, block[:])
}

func sha256ni2(s0, s1 *State256, b0, b1 *[BlockSize256]byte) {
	compress256(s0, b0[:])
	compress256(s1, b1[:])
}

func sha256niChain2(seed *State256, b0, b1 *[BlockSize256]byte, valOff, ctrOff, n, steps int) {
	chain256(seed, b0, valOff, ctrOff, n, steps)
	chain256(seed, b1, valOff, ctrOff, n, steps)
}
