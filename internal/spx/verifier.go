package spx

import (
	"fmt"

	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/fors"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/hypertree"
)

// Verifier is a reusable verification context for one public key, the
// mirror image of Signer: the seeded hash midstate, the lane-batch engine
// and all scratch arenas stay warm across calls, so steady-state Verify and
// VerifyBatch perform no allocation. A Verifier is NOT safe for concurrent
// use; create one per worker.
type Verifier struct {
	pk  *PublicKey
	ctx *hashes.Ctx

	// Scratch sized once at construction for up to sha2.Lanes signatures.
	digests []byte // Lanes * DigestBytes message digests
	forsPKs []byte // Lanes * N; FORS pk in, hypertree root out (in place)

	// Per-group staging, filled by verifyGroup.
	forsSigs [sha2.Lanes][]byte
	htSigs   [sha2.Lanes][]byte
	mds      [sha2.Lanes][]byte
	adrs     [sha2.Lanes]address.Address
	treeIdxs [sha2.Lanes]uint64
	leafIdxs [sha2.Lanes]uint32
	slots    [sha2.Lanes]int // original batch position of each lane
}

// NewVerifier builds a reusable verifier for pk.
func NewVerifier(pk *PublicKey) *Verifier {
	p := pk.Params
	return &Verifier{
		pk:      pk,
		ctx:     hashes.NewCtx(p, pk.Seed, nil),
		digests: make([]byte, sha2.Lanes*p.DigestBytes),
		forsPKs: make([]byte, sha2.Lanes*p.N),
	}
}

// Verify checks one SPHINCS+ signature, reusing the verifier's context.
// It returns nil on success and ErrVerify on mismatch; steady-state calls
// allocate nothing.
func (v *Verifier) Verify(msg, sig []byte) error {
	p := v.pk.Params
	if len(sig) != p.SigBytes {
		return fmt.Errorf("spx: signature must be %d bytes, got %d", p.SigBytes, len(sig))
	}
	digest := hashes.HMsgInto(p, v.digests[:p.DigestBytes], sig[:p.N], v.pk.Seed, v.pk.Root, msg)
	md, treeIdx, leafIdx := hashes.SplitDigest(p, digest)

	var forsAdrs address.Address
	forsAdrs.SetLayer(0)
	forsAdrs.SetTree(treeIdx)
	forsAdrs.SetType(address.FORSTree)
	forsAdrs.SetKeyPair(leafIdx)
	forsPK := v.forsPKs[:p.N]
	fors.PKFromSigInto(v.ctx, forsPK, sig[p.N:p.N+p.ForsBytes], md, &forsAdrs)

	var root [32]byte // N <= 32
	hypertree.PKFromSig(v.ctx, root[:p.N], sig[p.N+p.ForsBytes:], forsPK, treeIdx, leafIdx)
	for i := 0; i < p.N; i++ {
		if root[i] != v.pk.Root[i] {
			return ErrVerify
		}
	}
	return nil
}

// VerifyBatch checks len(msgs) signatures at once, lane-batching the hash
// work across signatures: groups of up to sha2.Lanes signatures run their
// FORS path climbs level-synchronously and their WOTS+ chains on the
// lane-resident chain engine, so multi-lane compression passes stay full
// where a single signature's live work dips. Verdicts are identical to
// calling Verify per pair; a wrong-length signature simply yields false
// without joining a lane group. ok receives one verdict per pair and is
// allocated when nil; passing a caller buffer keeps steady-state calls
// allocation-free. msgs and sigs must have equal length.
func (v *Verifier) VerifyBatch(ok []bool, msgs, sigs [][]byte) []bool {
	if len(msgs) != len(sigs) {
		panic("spx: VerifyBatch msgs/sigs length mismatch")
	}
	if ok == nil {
		ok = make([]bool, len(msgs))
	}
	ok = ok[:len(msgs)]
	p := v.pk.Params
	b := 0
	for i := range msgs {
		if len(sigs[i]) != p.SigBytes {
			ok[i] = false
			continue
		}
		v.slots[b] = i
		b++
		if b == sha2.Lanes {
			v.verifyGroup(b, ok, msgs, sigs)
			b = 0
		}
	}
	if b > 0 {
		v.verifyGroup(b, ok, msgs, sigs)
	}
	return ok
}

// verifyGroup runs one lane group of b valid-length signatures (indices in
// v.slots) through the batched FORS + hypertree recovery and writes each
// verdict into ok at its original position.
func (v *Verifier) verifyGroup(b int, ok []bool, msgs, sigs [][]byte) {
	p := v.pk.Params
	for k := 0; k < b; k++ {
		sig := sigs[v.slots[k]]
		digest := hashes.HMsgInto(p, v.digests[k*p.DigestBytes:(k+1)*p.DigestBytes],
			sig[:p.N], v.pk.Seed, v.pk.Root, msgs[v.slots[k]])
		md, treeIdx, leafIdx := hashes.SplitDigest(p, digest)
		v.mds[k] = md
		v.forsSigs[k] = sig[p.N : p.N+p.ForsBytes]
		v.htSigs[k] = sig[p.N+p.ForsBytes:]
		v.treeIdxs[k] = treeIdx
		v.leafIdxs[k] = leafIdx
		v.adrs[k] = address.Address{}
		v.adrs[k].SetLayer(0)
		v.adrs[k].SetTree(treeIdx)
		v.adrs[k].SetType(address.FORSTree)
		v.adrs[k].SetKeyPair(leafIdx)
	}
	fors.PKFromSigBatch(v.ctx, b, v.forsPKs[:b*p.N], &v.forsSigs, &v.mds, &v.adrs)
	// The recovered hypertree roots overwrite the FORS public keys in place.
	hypertree.PKFromSigBatch(v.ctx, b, v.forsPKs[:b*p.N], &v.htSigs, &v.treeIdxs, &v.leafIdxs)
	for k := 0; k < b; k++ {
		root := v.forsPKs[k*p.N : (k+1)*p.N]
		match := true
		for i := 0; i < p.N; i++ {
			if root[i] != v.pk.Root[i] {
				match = false
				break
			}
		}
		ok[v.slots[k]] = match
	}
}
