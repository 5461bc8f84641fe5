// Multi-lane SHA-256 engine.
//
// HERO-Sign's central observation is that SPHINCS+ hashing is dominated by
// *independent* fixed-shape SHA-256 messages — WOTS+ chain steps, FORS/XMSS
// leaves and Merkle nodes — which a GPU warp advances in lockstep, one
// compression per lane per pass. This file is the host-side analogue: a
// lane-batch API that runs up to Lanes independent compressions per pass
// over a struct-of-arrays state.
//
// Three backends sit under the API, one active at a time (Backend): the
// portable kernels (lanes_x4.go / lanes_x8.go, generated by gen_lanes.go)
// interleave the round bodies of four or eight lanes in one loop so the
// out-of-order core overlaps the per-round dependency chains; the native
// backend (native.go) runs the amd64 SHA-NI kernels on raw chaining states,
// two lanes per call; the stdlib backend streams each thash message through
// crypto/sha256 (Hasher256, below) and leaves raw states to the portable
// kernels. All produce bit-identical digests — a backend is selectable only
// after an init-time self-check against the portable scalar kernel — so
// only wall-clock speed differs. Modeled simulator metrics never depend on
// the backend because compression counts are charged analytically
// (CompressionBlocks256).
package sha2

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
)

// Lanes is the width of the lane-batch API: how many independent messages
// one multi-lane pass advances. Eight matches the shape HERO-Sign's warps
// give to WOTS chains and Merkle leaves and leaves room for an 8-wide SIMD
// kernel; the portable fallback internally runs two 4-lane register groups.
const Lanes = 8

// Compress256 absorbs one 64-byte block into a raw chaining state. It is
// the single-lane entry point of the lane engine; callers that batch work
// should prefer Compress256x8/Compress256Lanes. Dispatches to the native
// SHA extension kernel when that backend is active, else the portable
// scalar kernel.
func Compress256(state *State256, block *[BlockSize256]byte) {
	if backend == NativeBackend {
		sha256ni(state, block)
		return
	}
	compress256(state, block[:])
}

// Compress256x8 runs Lanes independent compressions in one pass: the
// Compress256Lanes call with every lane live.
func Compress256x8(states *[Lanes]State256, blocks *[Lanes][BlockSize256]byte) {
	Compress256Lanes(Lanes, states, blocks)
}

// Compress256Lanes advances the first count lane states (1 <= count <=
// Lanes) by one block each, choosing the cheapest kernel composition for
// the active backend. The native SHA extension kernels take lanes in pairs,
// so a ragged count costs exactly ceil(count/2) kernel calls — no idle-lane
// padding. The portable interleaved kernels need a full register complement;
// there the idle lanes recompute lane 0 into scratch state.
func Compress256Lanes(count int, states *[Lanes]State256, blocks *[Lanes][BlockSize256]byte) {
	if backend == NativeBackend {
		i := 0
		for ; i+1 < count; i += 2 {
			sha256ni2(&states[i], &states[i+1], &blocks[i], &blocks[i+1])
		}
		if i < count {
			sha256ni(&states[i], &blocks[i])
		}
		return
	}
	switch {
	case count > 4:
		for i := count; i < Lanes; i++ {
			states[i] = states[0]
			blocks[i] = blocks[0]
		}
		compress256x8(states, blocks)
	case count > 1:
		for i := count; i < 4; i++ {
			states[i] = states[0]
			blocks[i] = blocks[0]
		}
		compress256x4((*[4]State256)(states[:4]), (*[4][BlockSize256]byte)(blocks[:4]))
	default:
		compress256(&states[0], blocks[0][:])
	}
}

// PutDigest256 serializes the first len(out) bytes of the big-endian digest
// encoding of s into out (len(out) must be a multiple of 4, at most 32).
// SPHINCS+ truncates every thash output to N bytes; this writes only the
// words actually needed.
func PutDigest256(out []byte, s *State256) {
	for i := 0; i < len(out); i += 4 {
		binary.BigEndian.PutUint32(out[i:], s[i/4])
	}
}

// Chain256x2 advances two staged single-block messages steps times each, the
// inner loop of a WOTS+ chain. One step compresses the block from *seed
// (seed is only read), writes the first n bytes (16, 24 or 32) of the
// big-endian digest into the block at valOff, and increments the
// big-endian 32-bit word at ctrOff, wrapping at 2^32. The value and the
// word must lie inside the block and must not overlap. On the native
// backend both messages run inside one fused SHA-NI kernel call, with no
// Go code between compressions; elsewhere the portable scalar kernel runs
// them one after the other.
func Chain256x2(seed *State256, b0, b1 *[BlockSize256]byte, valOff, ctrOff, n, steps int) {
	if n != 16 && n != 24 && n != 32 || valOff < 0 || valOff+n > BlockSize256 ||
		ctrOff < 0 || ctrOff+4 > BlockSize256 || ctrOff < valOff+n && valOff < ctrOff+4 {
		panic("sha2: Chain256x2 value or counter outside the block, or overlapping")
	}
	if backend == NativeBackend {
		sha256niChain2(seed, b0, b1, valOff, ctrOff, n, steps)
		return
	}
	chain256(seed, b0, valOff, ctrOff, n, steps)
	chain256(seed, b1, valOff, ctrOff, n, steps)
}

// chain256 is the portable form of one message's Chain256x2.
func chain256(seed *State256, block *[BlockSize256]byte, valOff, ctrOff, n, steps int) {
	ctr := block[ctrOff : ctrOff+4]
	for ; steps > 0; steps-- {
		s := *seed
		compress256(&s, block[:])
		PutDigest256(block[valOff:valOff+n], &s)
		binary.BigEndian.PutUint32(ctr, binary.BigEndian.Uint32(ctr)+1)
	}
}

// --- stdlib backend ------------------------------------------------------

// accelStateSize is the size of crypto/sha256's marshaled state:
// 4-byte magic || 8 big-endian state words || 64-byte block buffer ||
// 8-byte absorbed length. The format is frozen by the stdlib's
// encoding.BinaryMarshaler compatibility promise; accelSelfCheck additionally
// proves it functional at init before any caller can depend on it.
const accelStateSize = 4 + 32 + BlockSize256 + 8

var accelMagic = [4]byte{'s', 'h', 'a', 0x03}

// accelSelfCheck gates StdlibBackend: it proves the stdlib round-trip
// (restore state -> absorb -> extract state) reproduces the portable kernel
// bit-for-bit. Any mismatch (changed marshal format, exotic platform)
// silently keeps the stdlib backend out of Backends.
func accelSelfCheck() bool {
	defer func() { recover() }() // a panicking stdlib path means: portable

	var h Hasher256
	if !h.initAccel() {
		return false
	}
	var block [BlockSize256]byte
	for i := range block {
		block[i] = byte(i * 5)
	}
	want := State256(iv256)
	compress256(&want, block[:])

	st := State256(iv256)
	if !h.accelCompress(&st, &block, 0) || st != want {
		return false
	}
	// Second block from the reached state, non-zero absorbed offset.
	compress256(&want, block[:])
	return h.accelCompress(&st, &block, BlockSize256) && st == want
}

// Hasher256 is a reusable, allocation-free SHA-256 engine that starts from
// an arbitrary midstate — the building block the SPHINCS+ thash layer feeds
// with fixed-shape messages. The zero value is ready for use; a Hasher256
// must not be shared between goroutines.
type Hasher256 struct {
	// portable path: the existing incremental implementation.
	ph Hash256

	// accelerated path, initialized on first use of StdlibBackend.
	d   hash.Hash
	un  encoding.BinaryUnmarshaler
	app encoding.BinaryAppender
	tpl [accelStateSize]byte
	buf [accelStateSize]byte // AppendBinary / Sum staging
	be  Backend              // the backend on was decided for
	on  bool                 // this hasher uses the accelerated path
}

// initAccel prepares the stdlib digest and template; reports success.
func (h *Hasher256) initAccel() bool {
	d := sha256.New()
	un, ok1 := d.(encoding.BinaryUnmarshaler)
	app, ok2 := d.(encoding.BinaryAppender)
	if !ok1 || !ok2 {
		return false
	}
	if b, err := app.AppendBinary(h.buf[:0]); err != nil || len(b) != accelStateSize ||
		[4]byte(b[:4]) != accelMagic {
		return false
	}
	h.d, h.un, h.app = d, un, app
	copy(h.tpl[:4], accelMagic[:])
	return true
}

// restore loads (state, absorbed) into the stdlib digest. absorbed must be
// a multiple of the block size.
func (h *Hasher256) restore(state *State256, absorbed uint64) bool {
	for i, v := range state {
		binary.BigEndian.PutUint32(h.tpl[4+4*i:], v)
	}
	// Block buffer stays zero: absorbed is block-aligned.
	binary.BigEndian.PutUint64(h.tpl[4+32+BlockSize256:], absorbed)
	return h.un.UnmarshalBinary(h.tpl[:]) == nil
}

// extract reads the current chaining state back out of the stdlib digest.
func (h *Hasher256) extract(state *State256) bool {
	b, err := h.app.AppendBinary(h.buf[:0])
	if err != nil || len(b) != accelStateSize {
		return false
	}
	for i := range state {
		state[i] = binary.BigEndian.Uint32(b[4+4*i:])
	}
	return true
}

// accelCompress absorbs one block into state via the hardware path.
func (h *Hasher256) accelCompress(state *State256, block *[BlockSize256]byte, absorbed uint64) bool {
	if !h.restore(state, absorbed) {
		return false
	}
	h.d.Write(block[:])
	return h.extract(state)
}

// Restart begins a new message whose first `absorbed` bytes (a multiple of
// BlockSize256) already produced midstate mid — the seeded-midstate entry
// point for thash.
func (h *Hasher256) Restart(mid *State256, absorbed uint64) {
	if h.be != backend {
		h.be = backend
		h.on = backend == StdlibBackend && (h.d != nil || h.initAccel())
	}
	if h.on && h.restore(mid, absorbed) {
		return
	}
	h.on = false // also when stdlib refused: portable until the backend changes
	h.ph.SetMidstate(*mid, absorbed)
}

// Reset begins a new message from the initial SHA-256 state.
func (h *Hasher256) Reset() {
	iv := State256(iv256)
	h.Restart(&iv, 0)
}

// Write absorbs p into the current message.
func (h *Hasher256) Write(p []byte) {
	if h.on {
		h.d.Write(p)
		return
	}
	h.ph.Write(p)
}

// SumTrunc finalizes the current message, writing the first len(out) bytes
// of the digest (len(out) <= Size256) without allocating. The hasher state
// is consumed; call Restart/Reset to begin the next message.
func (h *Hasher256) SumTrunc(out []byte) {
	if h.on {
		s := h.d.Sum(h.buf[:0])
		copy(out, s)
		return
	}
	s := h.ph.Sum(h.buf[:0])
	copy(out, s)
}
