// Package xmss implements the fixed-height Merkle signature scheme (the
// paper's "MSS") that forms each layer of the SPHINCS+ hypertree: a binary
// Merkle tree whose leaves are compressed WOTS+ public keys.
//
// Node-level primitives are exported so the simulated TREE_Sign kernel can
// distribute leaf generation (wots_gen_leaf) and the tree reduction across
// threads, while Sign/Root remain the sequential reference used as the
// correctness oracle. Leaf generation runs on the lane-batched WOTS+ chain
// stepper and each reduction level folds its nodes in multi-lane H passes.
package xmss

import (
	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
	"herosign/internal/spx/wots"
)

// GenLeaf computes leaf leafIdx of the subtree identified by treeAdrs
// (layer/tree set): the compressed WOTS+ public key of that key pair. This
// corresponds to the CUDA wots_gen_leaf routine the paper highlights as the
// register-pressure hot spot.
func GenLeaf(ctx *hashes.Ctx, out []byte, treeAdrs *address.Address, leafIdx uint32) {
	var adrs address.Address
	adrs.CopySubtree(treeAdrs)
	adrs.SetType(address.WOTSHash)
	adrs.SetKeyPair(leafIdx)
	wots.PKGen(ctx, out, &adrs)
}

// reduceLevel folds one level of width nodes in place with lane-batched H
// calls (hashes.HReduceLevel); h is the (1-based) height of the produced
// nodes.
func reduceLevel(ctx *hashes.Ctx, level []byte, width int, treeAdrs *address.Address, h int) {
	ctx.HReduceLevel(level, width, func(a *address.Address, i int) {
		a.CopySubtree(treeAdrs)
		a.SetType(address.Tree)
		a.SetTreeHeight(uint32(h))
		a.SetTreeIndex(uint32(i))
	})
}

// TreeHash computes the subtree root into root, optionally collecting the
// authentication path for leafIdx into auth (TreeHeight*N bytes, nil to
// skip). It materializes the full leaf level — subtrees have at most
// 2^TreeHeight <= 16 leaves for the -f sets, and at most 512 for -s.
func TreeHash(ctx *hashes.Ctx, root []byte, treeAdrs *address.Address, leafIdx uint32, auth []byte) {
	p := ctx.P
	width := 1 << uint(p.TreeHeight)
	level := ctx.XMSSLevelBuf()
	for i := 0; i < width; i++ {
		GenLeaf(ctx, level[i*p.N:(i+1)*p.N], treeAdrs, uint32(i))
	}

	idx := leafIdx
	for h := 0; h < p.TreeHeight; h++ {
		if auth != nil {
			sib := idx ^ 1
			copy(auth[h*p.N:(h+1)*p.N], level[int(sib)*p.N:int(sib+1)*p.N])
		}
		reduceLevel(ctx, level, width, treeAdrs, h+1)
		width /= 2
		idx >>= 1
	}
	copy(root[:p.N], level[:p.N])
}

// NodesLen returns the byte length of the full node table TreeNodes fills:
// every node of one subtree, level by level from the leaves up
// (2^TreeHeight + 2^(TreeHeight-1) + ... + 1 = 2*2^TreeHeight - 1 nodes of
// N bytes each).
func NodesLen(p *params.Params) int {
	return (2*(1<<uint(p.TreeHeight)) - 1) * p.N
}

// TreeNodes computes every node of the subtree identified by treeAdrs into
// nodes (NodesLen bytes): the leaf level first, then each reduction level,
// the root last. It runs the same lane-batched reduction as TreeHash — only
// the destination differs — so a cached node table is byte-identical to
// what TreeHash would recompute on every signature.
func TreeNodes(ctx *hashes.Ctx, nodes []byte, treeAdrs *address.Address) {
	p := ctx.P
	width := 1 << uint(p.TreeHeight)
	for i := 0; i < width; i++ {
		GenLeaf(ctx, nodes[i*p.N:(i+1)*p.N], treeAdrs, uint32(i))
	}
	level := ctx.XMSSLevelBuf()
	copy(level, nodes[:width*p.N])
	off := width * p.N
	for h := 0; h < p.TreeHeight; h++ {
		reduceLevel(ctx, level, width, treeAdrs, h+1)
		width /= 2
		copy(nodes[off:off+width*p.N], level[:width*p.N])
		off += width * p.N
	}
}

// AuthFromNodes copies the authentication path for leafIdx out of a
// TreeNodes table into auth (TreeHeight*N bytes) without hashing.
func AuthFromNodes(p *params.Params, auth, nodes []byte, leafIdx uint32) {
	width := 1 << uint(p.TreeHeight)
	off := 0
	idx := int(leafIdx)
	for h := 0; h < p.TreeHeight; h++ {
		sib := idx ^ 1
		copy(auth[h*p.N:(h+1)*p.N], nodes[off+sib*p.N:off+(sib+1)*p.N])
		off += width * p.N
		width /= 2
		idx >>= 1
	}
}

// RootFromNodes copies the subtree root (the last node) out of a TreeNodes
// table into root (N bytes).
func RootFromNodes(p *params.Params, root, nodes []byte) {
	copy(root[:p.N], nodes[len(nodes)-p.N:])
}

// Sign produces one XMSS layer signature: the WOTS+ signature of msg under
// the leaf key pair leafIdx, followed by the authentication path. The
// subtree root (which the next layer up signs) is written to root (N
// bytes); sig must be XMSSBytes long. root must not alias sig, but may
// alias msg: msg is fully consumed before the root is written.
func Sign(ctx *hashes.Ctx, root, sig, msg []byte, treeAdrs *address.Address, leafIdx uint32) {
	p := ctx.P
	var wotsAdrs address.Address
	wotsAdrs.CopySubtree(treeAdrs)
	wotsAdrs.SetType(address.WOTSHash)
	wotsAdrs.SetKeyPair(leafIdx)
	wots.Sign(ctx, sig[:p.WOTSBytes], msg, &wotsAdrs)

	TreeHash(ctx, root, treeAdrs, leafIdx, sig[p.WOTSBytes:])
}

// PKFromSigBatch recomputes b subtree roots at once, one per signature:
// the WOTS+ public-key recoveries share one lane-resident chain schedule
// across signatures (wots.PKFromSigBatch) and the b authentication-path
// climbs advance level-synchronously in multi-lane H passes. roots holds the b N-byte
// signed messages on entry and receives the b recovered roots on exit (the
// in-place convention the hypertree layer chain uses; every message is
// consumed before the first root byte is written). treeAdrs[j] identifies
// signature j's subtree (layer/tree set) and leafIdxs[j] its leaf. Outputs
// are byte-identical to b scalar PKFromSig calls.
func PKFromSigBatch(ctx *hashes.Ctx, b int, roots []byte, sigs *[sha2.Lanes][]byte, treeAdrs *[sha2.Lanes]address.Address, leafIdxs *[sha2.Lanes]uint32) {
	p := ctx.P
	var wotsAdrs [sha2.Lanes]address.Address
	var msgs, nodes [sha2.Lanes][]byte
	for j := 0; j < b; j++ {
		wotsAdrs[j].CopySubtree(&treeAdrs[j])
		wotsAdrs[j].SetType(address.WOTSHash)
		wotsAdrs[j].SetKeyPair(leafIdxs[j])
		msgs[j] = roots[j*p.N : (j+1)*p.N]
	}
	// The recovered WOTS public keys overwrite the messages in place —
	// PKFromSigBatch reads every message before writing any key.
	wots.PKFromSigBatch(ctx, b, roots[:b*p.N], sigs, &msgs, &wotsAdrs)

	var idxs [sha2.Lanes]uint32
	var lanes [sha2.Lanes]address.Address
	var lefts, rights [sha2.Lanes][]byte
	for j := 0; j < b; j++ {
		idxs[j] = leafIdxs[j]
		nodes[j] = roots[j*p.N : (j+1)*p.N]
	}
	for j := 0; j < b; j++ {
		lanes[j].CopySubtree(&treeAdrs[j])
		lanes[j].SetType(address.Tree)
	}
	for h := 0; h < p.TreeHeight; h++ {
		for j := 0; j < b; j++ {
			authNode := sigs[j][p.WOTSBytes+h*p.N : p.WOTSBytes+(h+1)*p.N]
			if idxs[j]&1 == 0 {
				lefts[j] = nodes[j]
				rights[j] = authNode
			} else {
				lefts[j] = authNode
				rights[j] = nodes[j]
			}
			lanes[j].SetTreeHeight(uint32(h + 1))
			lanes[j].SetTreeIndex(idxs[j] >> 1)
			idxs[j] >>= 1
		}
		ctx.HLanes(b, &nodes, &lefts, &rights, &lanes)
	}
}

// PKFromSig recomputes the subtree root from an XMSS signature into root
// (N bytes): recover the WOTS+ public key, then climb the authentication
// path. root may alias msg.
func PKFromSig(ctx *hashes.Ctx, root, sig, msg []byte, treeAdrs *address.Address, leafIdx uint32) {
	p := ctx.P
	var wotsAdrs address.Address
	wotsAdrs.CopySubtree(treeAdrs)
	wotsAdrs.SetType(address.WOTSHash)
	wotsAdrs.SetKeyPair(leafIdx)

	// The climb node lives in the context arena: a stack array would escape
	// (and allocate) per call through the scalar H's engine-backed path.
	node := ctx.XMSSNodeBuf()
	wots.PKFromSig(ctx, node, sig[:p.WOTSBytes], msg, &wotsAdrs)

	var nodeAdrs address.Address
	nodeAdrs.CopySubtree(treeAdrs)
	nodeAdrs.SetType(address.Tree)
	auth := sig[p.WOTSBytes:]
	idx := leafIdx
	for h := 0; h < p.TreeHeight; h++ {
		nodeAdrs.SetTreeHeight(uint32(h + 1))
		nodeAdrs.SetTreeIndex(idx >> 1)
		authNode := auth[h*p.N : (h+1)*p.N]
		if idx&1 == 0 {
			ctx.H(node, node, authNode, &nodeAdrs)
		} else {
			ctx.H(node, authNode, node, &nodeAdrs)
		}
		idx >>= 1
	}
	copy(root[:p.N], node)
}
