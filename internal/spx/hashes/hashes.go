// Package hashes implements the SPHINCS+ SHA-2 tweakable hash functions
// (F, H, T_l), the secret-key PRF, the message randomizer PRF_msg and the
// message digest H_msg, in the "simple" construction:
//
//	thash(ADRS, M)  = Trunc_n( SHA-256( BlockPad(PK.seed) || ADRS_c || M ) )
//	PRF(ADRS)       = Trunc_n( SHA-256( BlockPad(PK.seed) || ADRS_c || SK.seed ) )
//	PRF_msg(R, M)   = Trunc_n( HMAC-SHA-X( SK.prf, OptRand || M ) )
//	H_msg(R, M)     = MGF1-SHA-X( R || PK.seed || SHA-X(R || PK.seed || PK.root || M), m )
//
// where BlockPad pads PK.seed with zeros to one full compression block, so
// its midstate is computed once per context and reused for every call —
// the same precomputation CUDA implementations keep in constant memory.
//
// The hot path is allocation-free and batched: every thash call runs on a
// reusable sha2.Hasher256 embedded in the Ctx (no per-call hasher or
// buffer), fixed-shape single-block inputs skip the generic Write/Sum
// padding machinery entirely, and the FLanes/PRFLanes/HLanes/ThashLanes
// entry points advance up to sha2.Lanes independent hashes per multi-lane
// pass — the host-side mirror of HERO-Sign's warp-parallel chain stepping.
// ChainLanes runs whole WOTS+ F-chains that way, one chain resident per
// lane until it ends (chains.go).
//
// A Ctx carries an optional *Counters so that callers (the GPU simulator's
// kernels) can attribute exact compression-function counts to every
// invocation without re-implementing any cryptography. Counters are charged
// analytically (CompressionBlocks256), so modeled metrics are identical
// whichever backend or batching shape executed the hash.
package hashes

import (
	"encoding/binary"

	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/params"
)

// Counters accumulates hash-level work. All fields count events since the
// counter was attached (or reset). A nil *Counters disables counting.
type Counters struct {
	Compress256 int64 // SHA-256 compression-function invocations
	Compress512 int64 // SHA-512 compression-function invocations
	Thash       int64 // F/H/T_l calls
	PRF         int64 // secret-key PRF calls
	Bytes       int64 // message bytes absorbed (excluding the padded seed block)
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.Compress256 += other.Compress256
	c.Compress512 += other.Compress512
	c.Thash += other.Thash
	c.PRF += other.PRF
	c.Bytes += other.Bytes
}

// singleBlockMax is the largest post-seed message (address + input) whose
// padded thash still fits one compression block.
const singleBlockMax = sha2.BlockSize256 - 9

// Ctx binds a parameter set to key material and caches the seeded SHA-256
// midstate. Ctx is NOT safe for concurrent use: it embeds the reusable
// hash engine, the multi-lane staging buffers and the scratch arenas the
// wots/fors/xmss packages borrow; create one Ctx per worker (Clone).
type Ctx struct {
	P      *params.Params
	PKSeed []byte
	SKSeed []byte // may be nil for verify-only contexts

	C *Counters // optional; may be nil

	seeded sha2.State256 // midstate after absorbing BlockPad(PK.seed)
	eng    sha2.Hasher256
	comp   [address.CompressedSize]byte // staged compressed address (keeps
	// the hot path free of allocations: a stack array passed to the
	// engine's interface-backed Write would escape per call)

	// Multi-lane staging: one or two blocks per lane plus the lane states.
	laneStates [sha2.Lanes]sha2.State256
	laneBlk    [sha2.Lanes][sha2.BlockSize256]byte
	laneBlk2   [sha2.Lanes][sha2.BlockSize256]byte
	laneShape  [sha2.Lanes]int32           // staged single-block msgLen per lane; -1 = stale padding
	laneAdrs   [sha2.Lanes]address.Address // HReduceLevel staging (a stack
	// array would escape through the opaque setAdrs callback)
	chainOrder []int32 // ChainLanes schedule: live chains, longest first

	// Scratch arenas loaned to the spx component packages so their hot
	// paths perform no per-call allocation. Lazily sized from P; a Clone
	// starts without them.
	wotsPK    []byte
	lengths   []uint32
	indices   []uint32
	forsLevel []byte
	forsRoots []byte
	xmssLevel []byte
	xmssNode  []byte

	// Batch arenas for the cross-signature verification path: the same
	// shapes as above, but sized for up to sha2.Lanes signatures at once.
	wotsPKBatch    []byte
	lengthsBatch   []uint32
	indicesBatch   []uint32
	forsRootsBatch []byte
}

// NewCtx builds a hash context. skSeed may be nil when only public
// operations (verification) are needed.
func NewCtx(p *params.Params, pkSeed, skSeed []byte) *Ctx {
	if len(pkSeed) != p.N {
		panic("hashes: pk seed length mismatch")
	}
	if skSeed != nil && len(skSeed) != p.N {
		panic("hashes: sk seed length mismatch")
	}
	c := &Ctx{
		P:      p,
		PKSeed: append([]byte(nil), pkSeed...),
	}
	if skSeed != nil {
		c.SKSeed = append([]byte(nil), skSeed...)
	}
	var block [sha2.BlockSize256]byte
	copy(block[:], pkSeed)
	h := sha2.New256()
	h.Write(block[:])
	c.seeded = h.Midstate()
	return c
}

// Clone returns a context over the same key material with its own engine,
// lane staging and scratch space, and the given counter attached (counter
// may be nil). Used to give each simulated GPU thread an independent
// counting context over shared key material. Nothing but the key material
// and the seeded midstate is carried over, so clones never share memory;
// the zero laneShape matches no real message length, so every lane's
// padding is rewritten on first use.
func (c *Ctx) Clone(counter *Counters) *Ctx {
	return &Ctx{P: c.P, PKSeed: c.PKSeed, SKSeed: c.SKSeed, C: counter, seeded: c.seeded}
}

// --- scratch arenas -------------------------------------------------------

// WOTSPKBuf returns the WOTSLen*N-byte chain-end buffer used by
// wots.PKGen/PKFromSig. Valid until the next call that borrows it.
func (c *Ctx) WOTSPKBuf() []byte {
	if cap(c.wotsPK) < c.P.WOTSBytes {
		c.wotsPK = make([]byte, c.P.WOTSBytes)
	}
	return c.wotsPK[:c.P.WOTSBytes]
}

// WOTSLengthsBuf returns the WOTSLen-entry chain-start buffer used by the
// wots package.
func (c *Ctx) WOTSLengthsBuf() []uint32 {
	if cap(c.lengths) < c.P.WOTSLen {
		c.lengths = make([]uint32, c.P.WOTSLen)
	}
	return c.lengths[:c.P.WOTSLen]
}

// IndicesBuf returns the K-entry FORS index buffer used by the fors package.
func (c *Ctx) IndicesBuf() []uint32 {
	if cap(c.indices) < c.P.K {
		c.indices = make([]uint32, c.P.K)
	}
	return c.indices[:c.P.K]
}

// ForsLevelBuf returns the T*N-byte FORS leaf-level buffer.
func (c *Ctx) ForsLevelBuf() []byte {
	if cap(c.forsLevel) < c.P.T*c.P.N {
		c.forsLevel = make([]byte, c.P.T*c.P.N)
	}
	return c.forsLevel[:c.P.T*c.P.N]
}

// ForsRootsBuf returns the K*N-byte FORS root buffer.
func (c *Ctx) ForsRootsBuf() []byte {
	if cap(c.forsRoots) < c.P.K*c.P.N {
		c.forsRoots = make([]byte, c.P.K*c.P.N)
	}
	return c.forsRoots[:c.P.K*c.P.N]
}

// WOTSPKBatchBuf returns a b*WOTSBytes chain-end buffer for b signatures
// verified in one cross-signature batch (b <= sha2.Lanes). Like the scalar
// arenas it is valid until the next call that borrows it; capacity is
// always sized for sha2.Lanes so a varying batch size never reallocates.
func (c *Ctx) WOTSPKBatchBuf(b int) []byte {
	want := sha2.Lanes * c.P.WOTSBytes
	if cap(c.wotsPKBatch) < want {
		c.wotsPKBatch = make([]byte, want)
	}
	return c.wotsPKBatch[:b*c.P.WOTSBytes]
}

// WOTSLengthsBatchBuf returns a b*WOTSLen chain-start buffer for b
// signatures (b <= sha2.Lanes).
func (c *Ctx) WOTSLengthsBatchBuf(b int) []uint32 {
	want := sha2.Lanes * c.P.WOTSLen
	if cap(c.lengthsBatch) < want {
		c.lengthsBatch = make([]uint32, want)
	}
	return c.lengthsBatch[:b*c.P.WOTSLen]
}

// IndicesBatchBuf returns a b*K FORS index buffer for b signatures
// (b <= sha2.Lanes).
func (c *Ctx) IndicesBatchBuf(b int) []uint32 {
	want := sha2.Lanes * c.P.K
	if cap(c.indicesBatch) < want {
		c.indicesBatch = make([]uint32, want)
	}
	return c.indicesBatch[:b*c.P.K]
}

// ForsRootsBatchBuf returns a b*K*N FORS root buffer for b signatures
// (b <= sha2.Lanes).
func (c *Ctx) ForsRootsBatchBuf(b int) []byte {
	want := sha2.Lanes * c.P.K * c.P.N
	if cap(c.forsRootsBatch) < want {
		c.forsRootsBatch = make([]byte, want)
	}
	return c.forsRootsBatch[:b*c.P.K*c.P.N]
}

// XMSSNodeBuf returns an N-byte node scratch for the XMSS auth-path climb.
// A stack node would escape per call: the scalar H routes its inputs
// through the engine's interface-backed Write.
func (c *Ctx) XMSSNodeBuf() []byte {
	if cap(c.xmssNode) < c.P.N {
		c.xmssNode = make([]byte, c.P.N)
	}
	return c.xmssNode[:c.P.N]
}

// XMSSLevelBuf returns the 2^TreeHeight*N-byte XMSS leaf-level buffer.
func (c *Ctx) XMSSLevelBuf() []byte {
	want := (1 << uint(c.P.TreeHeight)) * c.P.N
	if cap(c.xmssLevel) < want {
		c.xmssLevel = make([]byte, want)
	}
	return c.xmssLevel[:want]
}

// --- counting -------------------------------------------------------------

// countThash charges calls thashes over msgLen message bytes each (past
// the seed block) to the attached counter.
func (c *Ctx) countThash(msgLen int, calls int64) {
	if c.C == nil {
		return
	}
	c.C.Thash += calls
	c.C.Bytes += calls * int64(msgLen)
	// Total absorbed: one seed block (cached midstate — on GPU this is a
	// constant-memory preimage, but the compression for it still ran once;
	// we charge only the non-cached part, matching what the kernel executes)
	// plus the address and message.
	c.C.Compress256 += calls * int64(sha2.CompressionBlocks256(sha2.BlockSize256+msgLen)-1)
}

// countPRF charges one PRF call.
func (c *Ctx) countPRF() {
	if c.C == nil {
		return
	}
	msgLen := address.CompressedSize + c.P.N
	c.C.PRF++
	c.C.Bytes += int64(msgLen)
	c.C.Compress256 += int64(sha2.CompressionBlocks256(sha2.BlockSize256+msgLen) - 1)
}

// --- scalar thash ---------------------------------------------------------

// thash2 is the shared seeded-hash core over up to two input segments
// (in2 may be nil). It writes the truncated digest to out[:N].
func (c *Ctx) thash2(out, in1, in2 []byte, adrs *address.Address) {
	c.comp = adrs.Compressed()
	comp := &c.comp
	n := c.P.N
	msgLen := address.CompressedSize + len(in1) + len(in2)
	if msgLen <= singleBlockMax && !sha2.Accelerated() {
		// Fixed-shape fast path: build the padded block directly and run a
		// single compression from the seeded midstate, skipping the generic
		// Write/Sum padding machinery.
		var block [sha2.BlockSize256]byte
		off := copy(block[:], comp[:])
		off += copy(block[off:], in1)
		off += copy(block[off:], in2)
		block[off] = 0x80
		binary.BigEndian.PutUint64(block[sha2.BlockSize256-8:],
			uint64(sha2.BlockSize256+msgLen)*8)
		st := c.seeded
		sha2.Compress256(&st, &block)
		sha2.PutDigest256(out[:n], &st)
		return
	}
	c.eng.Restart(&c.seeded, sha2.BlockSize256)
	c.eng.Write(comp[:])
	c.eng.Write(in1)
	if in2 != nil {
		c.eng.Write(in2)
	}
	c.eng.SumTrunc(out[:n])
}

// Thash computes the tweakable hash of in (a multiple of N bytes) under
// adrs, writing N bytes to out. It implements F (one block), H (two blocks)
// and T_l (l blocks) uniformly.
func (c *Ctx) Thash(out []byte, in []byte, adrs *address.Address) {
	c.thash2(out, in, nil, adrs)
	c.countThash(address.CompressedSize+len(in), 1)
}

// F is the single-input tweakable hash used in WOTS+ chains and FORS leaves.
func (c *Ctx) F(out, in []byte, adrs *address.Address) {
	c.Thash(out, in[:c.P.N], adrs)
}

// H is the two-input tweakable hash used for Merkle-tree node compression.
// left and right are N-byte nodes.
func (c *Ctx) H(out, left, right []byte, adrs *address.Address) {
	n := c.P.N
	c.thash2(out, left[:n], right[:n], adrs)
	c.countThash(address.CompressedSize+2*n, 1)
}

// PRF derives an N-byte secret value for adrs from SK.seed.
func (c *Ctx) PRF(out []byte, adrs *address.Address) {
	if c.SKSeed == nil {
		panic("hashes: PRF requires a secret context")
	}
	c.thash2(out, c.SKSeed, nil, adrs)
	c.countPRF()
}

// --- multi-lane thash -----------------------------------------------------

// thashLanes runs count (1 <= count <= sha2.Lanes) independent seeded
// hashes of identical shape: lane i hashes ADRS_c(adrs[i]) || in1[i]
// (|| in2[i] when in2 != nil) and writes N bytes to outs[i]. All lanes must
// have equal input lengths. Lane outputs may alias their own lane's inputs
// but must not alias another lane's inputs.
func (c *Ctx) thashLanes(count int, outs, in1, in2 *[sha2.Lanes][]byte, adrs *[sha2.Lanes]address.Address) {
	n := c.P.N
	msgLen := address.CompressedSize + len(in1[0])
	if in2 != nil {
		msgLen += len(in2[0])
	}
	// The stdlib backend streams each lane through hardware SHA-256;
	// batching into lane blocks would only add copies. Shapes beyond two
	// blocks (T_l) also take the scalar engine per lane.
	if sha2.Accelerated() || msgLen > singleBlockMax+sha2.BlockSize256 || count == 1 {
		for i := 0; i < count; i++ {
			if in2 != nil {
				c.thash2(outs[i], in1[i], in2[i], &adrs[i])
			} else {
				c.thash2(outs[i], in1[i], nil, &adrs[i])
			}
		}
		return
	}

	// Portable lane path: stage the padded message of every lane and run
	// the interleaved multi-lane kernel once per block position.
	blocks := 1
	if msgLen > singleBlockMax {
		blocks = 2
	}
	bitLen := uint64(sha2.BlockSize256+msgLen) * 8
	// On the native backend the padding suffix (0x80, zero run, bit length)
	// of a single-block lane survives between passes of the same shape, so
	// it is rewritten only when the staged length changes. The portable
	// wide kernels pad ragged groups by copying lane 0's block over idle
	// lanes, which silently restyles those blocks — there the cache is
	// unsound, so every portable pass invalidates it.
	skipPad := sha2.Native()
	for i := 0; i < count; i++ {
		first := &c.laneBlk[i]
		if blocks == 1 {
			adrs[i].CompressedInto(first[:])
			off := address.CompressedSize + copy(first[address.CompressedSize:], in1[i])
			if in2 != nil {
				off += copy(first[off:], in2[i])
			}
			if !skipPad || c.laneShape[i] != int32(msgLen) {
				first[off] = 0x80
				for j := off + 1; j < sha2.BlockSize256-8; j++ {
					first[j] = 0
				}
				binary.BigEndian.PutUint64(first[sha2.BlockSize256-8:], bitLen)
				c.laneShape[i] = int32(msgLen)
			}
		} else {
			second := &c.laneBlk2[i]
			var msg [2 * sha2.BlockSize256]byte
			adrs[i].CompressedInto(msg[:])
			moff := address.CompressedSize + copy(msg[address.CompressedSize:], in1[i])
			if in2 != nil {
				moff += copy(msg[moff:], in2[i])
			}
			msg[moff] = 0x80
			binary.BigEndian.PutUint64(msg[2*sha2.BlockSize256-8:], bitLen)
			copy(first[:], msg[:sha2.BlockSize256])
			copy(second[:], msg[sha2.BlockSize256:])
			c.laneShape[i] = -1
		}
		c.laneStates[i] = c.seeded
	}
	if !skipPad {
		for i := range c.laneShape {
			c.laneShape[i] = -1
		}
	}
	sha2.Compress256Lanes(count, &c.laneStates, &c.laneBlk)
	if blocks == 2 {
		sha2.Compress256Lanes(count, &c.laneStates, &c.laneBlk2)
	}
	for i := 0; i < count; i++ {
		sha2.PutDigest256(outs[i][:n], &c.laneStates[i])
	}
}

// FLanes computes outs[i] = F(ins[i], adrs[i]) for i < count in one
// multi-lane pass. count must be in [1, sha2.Lanes].
func (c *Ctx) FLanes(count int, outs, ins *[sha2.Lanes][]byte, adrs *[sha2.Lanes]address.Address) {
	n := c.P.N
	var trimmed [sha2.Lanes][]byte
	for i := 0; i < count; i++ {
		trimmed[i] = ins[i][:n]
	}
	c.thashLanes(count, outs, &trimmed, nil, adrs)
	c.countThash(address.CompressedSize+n, int64(count))
}

// HLanes computes outs[i] = H(lefts[i], rights[i], adrs[i]) for i < count.
func (c *Ctx) HLanes(count int, outs, lefts, rights *[sha2.Lanes][]byte, adrs *[sha2.Lanes]address.Address) {
	n := c.P.N
	var l, r [sha2.Lanes][]byte
	for i := 0; i < count; i++ {
		l[i] = lefts[i][:n]
		r[i] = rights[i][:n]
	}
	c.thashLanes(count, outs, &l, &r, adrs)
	c.countThash(address.CompressedSize+2*n, int64(count))
}

// HReduceLevel folds one in-place Merkle level of width nodes stored back
// to back in level — level[i] = H(level[2i], level[2i+1]) for i < width/2 —
// lane-batching the H calls. setAdrs stages the address of the parent node
// with level-local index i. Within a pass lane j writes node j while lanes
// k >= j read nodes >= 2j, and inputs are staged before outputs are
// written, so the in-place fold is safe on every backend.
func (c *Ctx) HReduceLevel(level []byte, width int, setAdrs func(a *address.Address, i int)) {
	n := c.P.N
	var outs, lefts, rights [sha2.Lanes][]byte
	parents := width / 2
	for base := 0; base < parents; base += sha2.Lanes {
		count := parents - base
		if count > sha2.Lanes {
			count = sha2.Lanes
		}
		for j := 0; j < count; j++ {
			i := base + j
			outs[j] = level[i*n : (i+1)*n]
			lefts[j] = level[2*i*n : (2*i+1)*n]
			rights[j] = level[(2*i+1)*n : (2*i+2)*n]
			setAdrs(&c.laneAdrs[j], i)
		}
		c.HLanes(count, &outs, &lefts, &rights, &c.laneAdrs)
	}
}

// PRFLanes computes outs[i] = PRF(adrs[i]) for i < count.
func (c *Ctx) PRFLanes(count int, outs *[sha2.Lanes][]byte, adrs *[sha2.Lanes]address.Address) {
	if c.SKSeed == nil {
		panic("hashes: PRF requires a secret context")
	}
	var ins [sha2.Lanes][]byte
	for i := 0; i < count; i++ {
		ins[i] = c.SKSeed
	}
	c.thashLanes(count, outs, &ins, nil, adrs)
	for i := 0; i < count; i++ {
		c.countPRF()
	}
}

// --- message-level functions ---------------------------------------------

// PRFMsg computes the message randomizer R from SK.prf, optRand and the
// message.
func PRFMsg(p *params.Params, skPRF, optRand, msg []byte) []byte {
	buf := make([]byte, 0, len(optRand)+len(msg))
	buf = append(buf, optRand...)
	buf = append(buf, msg...)
	if p.UsesSHA512Msg() {
		mac := sha2.HMAC512(skPRF, buf)
		return append([]byte(nil), mac[:p.N]...)
	}
	mac := sha2.HMAC256(skPRF, buf)
	return append([]byte(nil), mac[:p.N]...)
}

// HMsg computes the (MDBytes + TreeIdxBytes + LeafIdxBytes)-byte message
// digest from the randomizer, public key and message.
func HMsg(p *params.Params, r, pkSeed, pkRoot, msg []byte) []byte {
	return HMsgInto(p, make([]byte, p.DigestBytes), r, pkSeed, pkRoot, msg)
}

// HMsgInto is HMsg writing into dst (length >= DigestBytes) without
// allocating: the inner hash streams r || pkSeed || pkRoot || msg through a
// stack hasher and the MGF1 seed (r || pkSeed || inner digest, at most
// 2*32+64 bytes) is staged in a stack buffer. Returns dst[:DigestBytes].
func HMsgInto(p *params.Params, dst []byte, r, pkSeed, pkRoot, msg []byte) []byte {
	var seed [2*32 + sha2.Size512]byte // N <= 32; SHA-512 has the wider digest
	off := copy(seed[:], r[:p.N])
	off += copy(seed[off:], pkSeed)

	if p.UsesSHA512Msg() {
		var d sha2.Hash512
		d.Reset()
		d.Write(r[:p.N])
		d.Write(pkSeed)
		d.Write(pkRoot)
		d.Write(msg)
		off += len(d.Sum(seed[off:off])) // appends in place: capacity is seed's tail
		sha2.MGF1_512Into(dst[:p.DigestBytes], seed[:off])
		return dst[:p.DigestBytes]
	}
	var d sha2.Hash256
	d.Reset()
	d.Write(r[:p.N])
	d.Write(pkSeed)
	d.Write(pkRoot)
	d.Write(msg)
	off += len(d.Sum(seed[off:off])) // appends in place: capacity is seed's tail
	sha2.MGF1_256Into(dst[:p.DigestBytes], seed[:off])
	return dst[:p.DigestBytes]
}

// SplitDigest splits an H_msg digest into the FORS message md, the hypertree
// index and the leaf index, per the specification's bit layout. md aliases
// digest; no allocation occurs.
func SplitDigest(p *params.Params, digest []byte) (md []byte, treeIdx uint64, leafIdx uint32) {
	md = digest[:p.MDBytes]
	treeBytes := digest[p.MDBytes : p.MDBytes+p.TreeIdxBytes]
	leafBytes := digest[p.MDBytes+p.TreeIdxBytes : p.DigestBytes]

	for _, b := range treeBytes {
		treeIdx = treeIdx<<8 | uint64(b)
	}
	treeBits := uint(p.H - p.TreeHeight)
	if treeBits < 64 {
		treeIdx &= (1 << treeBits) - 1
	}

	var leaf uint64
	for _, b := range leafBytes {
		leaf = leaf<<8 | uint64(b)
	}
	leaf &= (1 << uint(p.TreeHeight)) - 1
	return md, treeIdx, uint32(leaf)
}

// MessageToIndicesInto extracts the K FORS leaf indices (LogT bits each,
// LSB-first within the bitstream, matching the reference implementation)
// from the md portion of the digest into dst (length >= K) and returns
// dst[:K]. It performs no allocation.
func MessageToIndicesInto(p *params.Params, dst []uint32, md []byte) []uint32 {
	dst = dst[:p.K]
	offset := 0
	for i := 0; i < p.K; i++ {
		var idx uint32
		for j := 0; j < p.LogT; j++ {
			idx ^= uint32((md[offset>>3]>>(offset&7))&1) << uint(j)
			offset++
		}
		dst[i] = idx
	}
	return dst
}

// MessageToIndices is MessageToIndicesInto with a freshly allocated
// destination; hot paths should pass a reusable slice to the Into variant.
func MessageToIndices(p *params.Params, md []byte) []uint32 {
	return MessageToIndicesInto(p, make([]uint32, p.K), md)
}
