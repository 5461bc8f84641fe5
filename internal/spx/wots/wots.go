// Package wots implements the WOTS+ one-time signature scheme as used
// inside SPHINCS+ (chain generation, signing, and public-key recovery from
// a signature).
//
// Every chain is an independent sequence of F evaluations — the property
// HERO-Sign exploits for chain-level GPU parallelism. The functions here
// therefore expose per-chain entry points (ChainLengths, GenChain) in
// addition to whole-signature operations, so the simulated kernels can
// schedule chains onto threads exactly as the CUDA implementation does.
//
// The whole-key operations (PKGen, Sign, PKFromSig) are lane-batched: all
// WOTSLen chains advance step-synchronously, one F per live chain per
// multi-lane pass (hashes.FLanes), mirroring a warp advancing independent
// chains in lockstep. PKFromSig stays on that loop as the reference for
// the batched verification path: PKFromSigBatch hands all b*WOTSLen chains
// of a batch to the lane-resident chain engine (hashes.Ctx.ChainLanes),
// where each lane keeps one chain until it ends and is then refilled with
// another — no step barrier, no rescan of finished chains; HERO-Sign's
// one-chain-per-thread, full-warp discipline. Outputs are byte-identical
// to the per-chain path, and hash counters are charged per logical call,
// so modeled metrics do not change.
package wots

import (
	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
)

// ChainLengthsInto computes the base-w representation of msg (N bytes)
// followed by the checksum digits — the start positions of all WOTSLen
// chains — into dst (length >= WOTSLen) without allocating, and returns
// dst[:WOTSLen]. Entries are in [0, w).
func ChainLengthsInto(p *params.Params, dst []uint32, msg []byte) []uint32 {
	dst = dst[:p.WOTSLen]
	baseW(p, dst[:p.WOTSLen1], msg)

	// Checksum over the message digits.
	var csum uint32
	for _, d := range dst[:p.WOTSLen1] {
		csum += uint32(p.W-1) - d
	}
	// Left-shift so the checksum occupies the top bits of its byte string.
	csum <<= uint((8 - (p.WOTSLen2*p.LogW)%8) % 8)
	var csumBytes [8]byte // WOTSLen2*LogW is at most 32 bits for all sets
	nb := (p.WOTSLen2*p.LogW + 7) / 8
	for i := nb - 1; i >= 0; i-- {
		csumBytes[i] = byte(csum)
		csum >>= 8
	}
	baseW(p, dst[p.WOTSLen1:], csumBytes[:nb])
	return dst
}

// ChainLengths is ChainLengthsInto with a freshly allocated destination.
func ChainLengths(p *params.Params, msg []byte) []uint32 {
	return ChainLengthsInto(p, make([]uint32, p.WOTSLen), msg)
}

// baseW splits msg into out digits of LogW bits, most-significant first.
func baseW(p *params.Params, out []uint32, msg []byte) {
	in := 0
	bits := 0
	var total byte
	for i := range out {
		if bits == 0 {
			total = msg[in]
			in++
			bits = 8
		}
		bits -= p.LogW
		out[i] = uint32(total>>uint(bits)) & uint32(p.W-1)
	}
}

// GenChain walks the hash chain: out = F^steps(in) starting at position
// start. adrs must have its chain word already set; the hash word is
// updated in place. in and out are N-byte values and may alias.
func GenChain(ctx *hashes.Ctx, out, in []byte, start, steps uint32, adrs *address.Address) {
	p := ctx.P
	copy(out[:p.N], in[:p.N])
	for i := start; i < start+steps && i < uint32(p.W); i++ {
		adrs.SetHash(i)
		ctx.F(out, out, adrs)
	}
}

// ChainSK derives the chain-i secret value into out using the WOTS PRF
// address type.
func ChainSK(ctx *hashes.Ctx, out []byte, chain uint32, adrs *address.Address) {
	var skAdrs address.Address
	skAdrs.CopyKeyPair(adrs)
	skAdrs.SetType(address.WOTSPRF)
	skAdrs.SetKeyPair(adrs.KeyPair())
	skAdrs.SetChain(chain)
	ctx.PRF(out, &skAdrs)
}

// chainSKBatch derives the secret values of all WOTSLen chains into
// buf (WOTSLen*N bytes), sha2.Lanes at a time.
func chainSKBatch(ctx *hashes.Ctx, buf []byte, adrs *address.Address) {
	p := ctx.P
	var outs [sha2.Lanes][]byte
	var lanes [sha2.Lanes]address.Address
	for base := 0; base < p.WOTSLen; base += sha2.Lanes {
		count := p.WOTSLen - base
		if count > sha2.Lanes {
			count = sha2.Lanes
		}
		for j := 0; j < count; j++ {
			chain := base + j
			outs[j] = buf[chain*p.N : (chain+1)*p.N]
			lanes[j].CopyKeyPair(adrs)
			lanes[j].SetType(address.WOTSPRF)
			lanes[j].SetKeyPair(adrs.KeyPair())
			lanes[j].SetChain(uint32(chain))
		}
		ctx.PRFLanes(count, &outs, &lanes)
	}
}

// stepChainsBatch advances every chain i whose [starts[i], ends[i]) range
// contains the current step, step-synchronously: per hash position s, all
// live chains take one F in multi-lane passes. buf holds the WOTSLen chain
// values back to back (N bytes each) and is updated in place.
func stepChainsBatch(ctx *hashes.Ctx, buf []byte, starts, ends []uint32, adrs *address.Address) {
	p := ctx.P
	var outs [sha2.Lanes][]byte
	var lanes [sha2.Lanes]address.Address
	maxEnd := uint32(0)
	for _, e := range ends {
		if e > maxEnd {
			maxEnd = e
		}
	}
	for s := uint32(0); s < maxEnd; s++ {
		count := 0
		for i := 0; i < p.WOTSLen; i++ {
			if s < starts[i] || s >= ends[i] {
				continue
			}
			seg := buf[i*p.N : (i+1)*p.N]
			outs[count] = seg
			lanes[count].CopyKeyPair(adrs)
			lanes[count].SetType(address.WOTSHash)
			lanes[count].SetKeyPair(adrs.KeyPair())
			lanes[count].SetChain(uint32(i))
			lanes[count].SetHash(s)
			count++
			if count == sha2.Lanes {
				ctx.FLanes(count, &outs, &outs, &lanes)
				count = 0
			}
		}
		if count > 0 {
			ctx.FLanes(count, &outs, &outs, &lanes)
		}
	}
}

// PKGen computes the compressed WOTS+ public key (N bytes) for the key pair
// identified by adrs (type WOTSHash with key pair set). All WOTSLen chains
// run to their end step-synchronously before T_len compresses them.
func PKGen(ctx *hashes.Ctx, out []byte, adrs *address.Address) {
	p := ctx.P
	pk := ctx.WOTSPKBuf()
	chainSKBatch(ctx, pk, adrs)
	var zeros, ends [wotsMaxLen]uint32
	for i := 0; i < p.WOTSLen; i++ {
		ends[i] = uint32(p.W - 1)
	}
	stepChainsBatch(ctx, pk, zeros[:p.WOTSLen], ends[:p.WOTSLen], adrs)

	var pkAdrs address.Address
	pkAdrs.CopyKeyPair(adrs)
	pkAdrs.SetType(address.WOTSPK)
	pkAdrs.SetKeyPair(adrs.KeyPair())
	ctx.Thash(out, pk, &pkAdrs)
}

// wotsMaxLen bounds WOTSLen across all supported parameter sets (w=16 at
// n=32 gives 64+3 = 67; w=256 sets are shorter).
const wotsMaxLen = 80

// Sign produces the WOTS+ signature of msg (N bytes) into sig
// (WOTSLen*N bytes) for the key pair identified by adrs. Chains advance
// step-synchronously to their per-digit lengths.
func Sign(ctx *hashes.Ctx, sig, msg []byte, adrs *address.Address) {
	p := ctx.P
	lengths := ChainLengthsInto(p, ctx.WOTSLengthsBuf(), msg)
	chainSKBatch(ctx, sig[:p.WOTSBytes], adrs)
	var zeros [wotsMaxLen]uint32
	stepChainsBatch(ctx, sig, zeros[:p.WOTSLen], lengths, adrs)
}

// PKFromSigBatch recovers b compressed public keys at once, one per
// signature, running the b*WOTSLen chains of all signatures through the
// lane-resident chain engine (hashes.Ctx.ChainLanes): a lane that finishes
// a chain is refilled at once with another, from any signature, so lane
// passes stay full without a step barrier and finished chains are never
// revisited. pks receives b N-byte public keys back to back. msgs[j] is the
// N-byte signed value of signature j; pks may overlap the msgs storage —
// every message is consumed before the first public-key byte is written.
// adrs[j] must carry signature j's key-pair addressing (type WOTSHash).
// Outputs are byte-identical to b scalar PKFromSig calls.
func PKFromSigBatch(ctx *hashes.Ctx, b int, pks []byte, sigs, msgs *[sha2.Lanes][]byte, adrs *[sha2.Lanes]address.Address) {
	p := ctx.P
	lengths := ctx.WOTSLengthsBatchBuf(b)
	buf := ctx.WOTSPKBatchBuf(b)
	var tpl [sha2.Lanes]address.Address
	for j := 0; j < b; j++ {
		ChainLengthsInto(p, lengths[j*p.WOTSLen:(j+1)*p.WOTSLen], msgs[j])
		copy(buf[j*p.WOTSBytes:(j+1)*p.WOTSBytes], sigs[j][:p.WOTSBytes])
		tpl[j].CopyKeyPair(&adrs[j])
		tpl[j].SetType(address.WOTSHash)
		tpl[j].SetKeyPair(adrs[j].KeyPair())
	}
	var ends [sha2.Lanes * wotsMaxLen]uint32
	for i := range ends[:b*p.WOTSLen] {
		ends[i] = uint32(p.W - 1)
	}
	ctx.ChainLanes(buf, lengths, ends[:b*p.WOTSLen], tpl[:b], p.WOTSLen)

	var pkAdrs address.Address
	for j := 0; j < b; j++ {
		pkAdrs.CopyKeyPair(&adrs[j])
		pkAdrs.SetType(address.WOTSPK)
		pkAdrs.SetKeyPair(adrs[j].KeyPair())
		ctx.Thash(pks[j*p.N:(j+1)*p.N], buf[j*p.WOTSBytes:(j+1)*p.WOTSBytes], &pkAdrs)
	}
}

// PKFromSig recovers the compressed public key from a signature and the
// signed message; verification succeeds when the result feeds a Merkle path
// that reproduces the tree root.
func PKFromSig(ctx *hashes.Ctx, out, sig, msg []byte, adrs *address.Address) {
	p := ctx.P
	lengths := ChainLengthsInto(p, ctx.WOTSLengthsBuf(), msg)
	pk := ctx.WOTSPKBuf()
	copy(pk, sig[:p.WOTSBytes])
	var ends [wotsMaxLen]uint32
	for i := 0; i < p.WOTSLen; i++ {
		ends[i] = uint32(p.W - 1)
	}
	stepChainsBatch(ctx, pk, lengths, ends[:p.WOTSLen], adrs)

	var pkAdrs address.Address
	pkAdrs.CopyKeyPair(adrs)
	pkAdrs.SetType(address.WOTSPK)
	pkAdrs.SetKeyPair(adrs.KeyPair())
	ctx.Thash(out, pk, &pkAdrs)
}
