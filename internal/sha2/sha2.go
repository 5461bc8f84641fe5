// Package sha2 implements the SHA-2 family of hash functions (SHA-256 and
// SHA-512) from scratch, together with the HMAC and MGF1 constructions that
// the SPHINCS+ SHA-2 instantiation requires.
//
// The package exists instead of crypto/sha256 for two reasons:
//
//  1. HERO-Sign's central compiler-level optimization operates *inside* the
//     SHA-256 compression function (PTX byte-permutation loads, mad-based
//     modular additions). The simulator needs an implementation whose
//     compression-function call count and message schedule are observable,
//     so that the PTX instruction model (internal/ptx) can attribute an
//     exact instruction mix to every hash invocation.
//  2. The reproduction mandate is to build every substrate the paper
//     depends on.
//
// Correctness is pinned to the standard library in the package tests: every
// digest produced here is compared byte-for-byte against crypto/sha256 and
// crypto/sha512 across a large corpus of lengths and contents.
//
// # Multi-lane engine
//
// Beyond the scalar primitives, the package provides a lane-batch engine
// (lanes.go): Compress256x8 and Compress256Lanes run several independent
// compressions per pass, Chain256x2 runs two WOTS+ chain segments per
// call, and the reusable Hasher256 starts messages from arbitrary
// midstates without allocating. This mirrors the paper's warp execution
// model — a warp advances Lanes independent hash chains in lockstep, one
// compression per lane per pass — on the host CPU.
//
// Three interchangeable backends sit under it, one active at a time (see
// Backend): the portable Go kernels, the platform's hardware SHA-256
// reached through crypto/sha256, and the amd64 SHA-NI kernels. Init picks
// the fastest one whose self-check proves it bit-identical to the portable
// scalar kernel; Use changes it for tests and benchmarks.
package sha2

import "slices"

// Backend names one SHA-256 backend of the lane engine.
type Backend uint8

const (
	PortableBackend Backend = iota // the pure-Go scalar and interleaved lane kernels
	StdlibBackend                  // thash via crypto/sha256 (Hasher256); raw states as portable
	NativeBackend                  // the SHA-NI kernels of native_amd64.s
)

func (b Backend) String() string {
	if names := [...]string{"portable", "stdlib", "native"}; int(b) < len(names) {
		return names[b]
	}
	return "invalid"
}

// selectable lists, in Backend order, the backends whose init-time
// self-check passed; portable is the reference they are checked against.
// backend, the active one, starts as the last of them (the fastest); the
// hot paths read it without synchronization.
var (
	selectable = selfCheck()
	backend    = selectable[len(selectable)-1]
)

func selfCheck() []Backend {
	ok := []Backend{PortableBackend}
	if accelSelfCheck() {
		ok = append(ok, StdlibBackend)
	}
	if nativeSelfCheck() {
		ok = append(ok, NativeBackend)
	}
	return ok
}

// Backends returns the selectable backends in Backend order.
func Backends() []Backend { return slices.Clone(selectable) }

// Current returns the active backend.
func Current() Backend { return backend }

// Native reports whether the SHA-NI backend is active.
func Native() bool { return backend == NativeBackend }

// Accelerated reports whether the crypto/sha256 backend is active.
func Accelerated() bool { return backend == StdlibBackend }

// Use makes b the active backend and returns the one it replaces; it
// refuses a backend that is not selectable (ok false, nothing changes).
// Not safe to call concurrently with hashing.
func Use(b Backend) (prev Backend, ok bool) {
	if !slices.Contains(selectable, b) {
		return backend, false
	}
	prev, backend = backend, b
	return prev, true
}

// BlockSize256 is the SHA-256 message block size in bytes.
const BlockSize256 = 64

// Size256 is the SHA-256 digest size in bytes.
const Size256 = 32

// BlockSize512 is the SHA-512 message block size in bytes.
const BlockSize512 = 128

// Size512 is the SHA-512 digest size in bytes.
const Size512 = 64

// CompressionBlocks256 returns the number of SHA-256 compression-function
// invocations needed to hash a message of msgLen bytes (including padding).
// This is the quantity the GPU simulator charges for each hash call.
func CompressionBlocks256(msgLen int) int {
	// Padding: 1 byte 0x80, zeros, 8-byte length; total padded length is the
	// next multiple of 64 that leaves 9 bytes of room.
	return (msgLen + 9 + BlockSize256 - 1) / BlockSize256
}

// CompressionBlocks512 is the SHA-512 analogue of CompressionBlocks256
// (16-byte length field, 128-byte blocks).
func CompressionBlocks512(msgLen int) int {
	return (msgLen + 17 + BlockSize512 - 1) / BlockSize512
}
