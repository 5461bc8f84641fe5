//go:build amd64

package sha2

// The SHA-NI kernels, emitted by gen_native.go into native_amd64.s.
//
// sha256ni absorbs one 64-byte block into one chaining state; sha256ni2
// absorbs one block into each of two independent states with the round
// chains interleaved (SHA256RNDS2 is latency-bound on a single message);
// sha256niChain2 runs steps chain steps on two staged blocks, interleaved
// the same way (see Chain256x2 for what one step does).

//go:noescape
func sha256ni(state *State256, block *[BlockSize256]byte)

//go:noescape
func sha256ni2(s0, s1 *State256, b0, b1 *[BlockSize256]byte)

//go:noescape
func sha256niChain2(seed *State256, b0, b1 *[BlockSize256]byte, valOff, ctrOff, n, steps int)

func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// nativeProbe reports whether the CPU exposes the SHA extensions plus the
// SSSE3/SSE4.1 shuffles the kernels use.
func nativeProbe() bool {
	maxLeaf, _, _, _ := cpuidLeaf(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const ssse3 = 1 << 9
	const sse41 = 1 << 19
	if _, _, ecx, _ := cpuidLeaf(1, 0); ecx&ssse3 == 0 || ecx&sse41 == 0 {
		return false
	}
	const shaExt = 1 << 29
	_, ebx, _, _ := cpuidLeaf(7, 0)
	return ebx&shaExt != 0
}
