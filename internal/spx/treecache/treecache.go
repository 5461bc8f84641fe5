// Package treecache memoizes per-key XMSS subtree state across signatures.
//
// Every SPHINCS+ signature under one key rebuilds D XMSS subtrees from
// scratch, yet each subtree depends only on the key seeds and its (layer,
// tree index) coordinates — and at every layer above the bottom, the message
// a leaf signs is the root of a fixed child subtree. A Cache therefore
// stores, per visited subtree, the full Merkle node table (leaves through
// root, as TreeNodes lays it out) plus one WOTS+ signature slot per leaf
// tagged with the N-byte message it signs. On a hit the auth path and root
// are memcpys; when the tag also matches, the WOTS+ signature is a memcpy
// too and the layer costs no hashing at all.
//
// Residency is split by a byte budget: the top hypertree layers (few trees,
// touched by every signature) are pinned — populated up front by Warm or
// lazily on first miss — while lower-layer subtrees live in an LRU bounded
// by the remaining budget, so repeated traffic (the per-shard key domains of
// the serving layer) keeps its working set resident.
//
// A Cache is safe for concurrent use by many signers sharing one key; all
// state is guarded by a single mutex, which is cheap next to the
// milliseconds a SPHINCS+ signature costs. The hit path performs no
// allocation. Cached bytes are exactly what the uncached path recomputes,
// so signatures are byte-identical with and without a cache.
package treecache

import (
	"bytes"
	"container/list"
	"runtime"
	"sync"

	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
	"herosign/internal/spx/wots"
	"herosign/internal/spx/xmss"
)

// key identifies one XMSS subtree: its hypertree layer and the tree index
// within that layer.
type key struct {
	layer uint8
	tree  uint64
}

// entry is one cached subtree: the full node table plus per-leaf WOTS+
// signature slots tagged by signed message.
type entry struct {
	nodes  []byte        // xmss.NodesLen(p): leaf level .. root
	wots   []byte        // leaves * WOTSBytes, slot per leaf
	tags   []byte        // leaves * N: the message each filled slot signs
	filled []bool        // per leaf: wots/tags slot valid
	elem   *list.Element // LRU position; nil for pinned entries
}

// entryOverhead approximates the per-entry bookkeeping bytes (map bucket,
// list element, slice headers) charged against the budget.
const entryOverhead = 160

// Cache memoizes XMSS subtree state for one key. See the package comment.
type Cache struct {
	p      *params.Params
	pkSeed []byte
	skSeed []byte

	budget    int64 // total byte budget
	lruBudget int64 // budget remaining after the pinned-layer plan
	entrySize int64 // uniform per-entry cost, bookkeeping included
	pinFloor  int   // layers >= pinFloor are pinned resident; p.D pins none

	mu          sync.Mutex
	entries     map[key]*entry
	lru         list.List // of key; front = most recently used
	lruBytes    int64
	pinnedBytes int64

	hits, misses, evictions int64
	wotsHits, wotsFills     int64
	warmed                  int64
}

// Stats is a point-in-time snapshot of cache effectiveness and residency.
type Stats struct {
	Hits      int64 // SignLayer found the subtree's node table
	Misses    int64 // SignLayer rebuilt the subtree
	Evictions int64 // LRU entries displaced by the budget
	WOTSHits  int64 // hits whose WOTS+ slot also matched (zero-hash layer)
	WOTSFills int64 // WOTS+ slots computed and stored on the request path

	ResidentBytes int64 // bytes currently held (pinned + LRU)
	BudgetBytes   int64 // configured budget
	PinnedLayers  int   // top hypertree layers in the pinned plan
	Entries       int   // cached subtrees
	WarmedEntries int64 // pinned subtrees populated by Warm
}

// New builds a cache for the key identified by (pkSeed, skSeed) under p,
// holding at most budget bytes. The top hypertree layers whose cumulative
// size fits half the budget are pinned (populated by Warm or lazily); the
// rest of the budget bounds the lower-layer LRU. A budget too small for a
// single subtree yields a valid cache that simply never retains lower
// layers.
func New(p *params.Params, pkSeed, skSeed []byte, budget int64) *Cache {
	c := &Cache{
		p:       p,
		pkSeed:  append([]byte(nil), pkSeed...),
		skSeed:  append([]byte(nil), skSeed...),
		budget:  budget,
		entries: make(map[key]*entry),
	}
	leaves := int64(1) << uint(p.TreeHeight)
	c.entrySize = int64(xmss.NodesLen(p)) + leaves*int64(p.WOTSBytes) +
		leaves*int64(p.N) + leaves + entryOverhead

	// Pin top layers greedily while they fit half the budget. Tree counts
	// grow by 2^TreeHeight per layer descended, so the loop stops fast; the
	// shift guard keeps the count arithmetic clear of overflow long after
	// any realistic budget is exhausted.
	maxPin := (budget / 2) / c.entrySize
	var cum int64
	c.pinFloor = p.D
	for l := p.D - 1; l >= 0; l-- {
		shift := uint(p.H - (l+1)*p.TreeHeight)
		if shift >= 40 {
			break
		}
		trees := int64(1) << shift
		if cum+trees > maxPin {
			break
		}
		cum += trees
		c.pinFloor = l
	}
	c.lruBudget = budget - cum*c.entrySize
	return c
}

// MatchesKey reports whether the cache was built for the key identified by
// (p, pkSeed, skSeed). Sharing a cache across keys would emit signatures
// under the wrong key material, so callers gate on this.
func (c *Cache) MatchesKey(p *params.Params, pkSeed, skSeed []byte) bool {
	return c.p == p && bytes.Equal(c.pkSeed, pkSeed) && bytes.Equal(c.skSeed, skSeed)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		WOTSHits: c.wotsHits, WOTSFills: c.wotsFills,
		ResidentBytes: c.pinnedBytes + c.lruBytes,
		BudgetBytes:   c.budget,
		PinnedLayers:  c.p.D - c.pinFloor,
		Entries:       len(c.entries),
		WarmedEntries: c.warmed,
	}
}

// signWOTS emits the WOTS+ signature of msg under leaf leafIdx of subtree
// (layer, treeIdx) — the same address construction as xmss.Sign.
func (c *Cache) signWOTS(ctx *hashes.Ctx, sig, msg []byte, layer int, treeIdx uint64, leafIdx uint32) {
	var adrs address.Address
	adrs.SetLayer(uint32(layer))
	adrs.SetTree(treeIdx)
	adrs.SetType(address.WOTSHash)
	adrs.SetKeyPair(leafIdx)
	wots.Sign(ctx, sig, msg, &adrs)
}

// SignLayer produces one XMSS layer signature into sig (XMSSBytes) and the
// subtree root into root (N bytes), consulting the cache for the subtree at
// (layer, treeIdx). On a full hit (node table cached, WOTS+ slot tag equal
// to msg) the layer is three memcpys and performs no hashing and no
// allocation. On a node hit the auth path and root come from the table and
// only the WOTS+ signature is computed (and stored under msg's tag). On a
// miss the full table is built — byte-identical to xmss.Sign — and
// installed: pinned if layer is in the pinned plan, else into the LRU.
//
// root must not alias sig, but may alias msg, matching xmss.Sign.
func (c *Cache) SignLayer(ctx *hashes.Ctx, root, sig, msg []byte, layer int, treeIdx uint64, leafIdx uint32) {
	p := c.p
	var m [32]byte // N <= 32; root may alias msg, so capture msg first
	copy(m[:p.N], msg[:p.N])
	w := p.WOTSBytes
	k := key{layer: uint8(layer), tree: treeIdx}
	lo := int(leafIdx) * p.N

	c.mu.Lock()
	if e := c.entries[k]; e != nil {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits++
		if e.filled[leafIdx] && bytes.Equal(e.tags[lo:lo+p.N], m[:p.N]) {
			c.wotsHits++
			copy(sig[:w], e.wots[int(leafIdx)*w:(int(leafIdx)+1)*w])
			xmss.AuthFromNodes(p, sig[w:p.XMSSBytes], e.nodes, leafIdx)
			xmss.RootFromNodes(p, root, e.nodes)
			c.mu.Unlock()
			return
		}
		// Node hit, WOTS miss: copy the cheap parts under the lock, compute
		// the WOTS+ signature outside it, then store the slot.
		xmss.AuthFromNodes(p, sig[w:p.XMSSBytes], e.nodes, leafIdx)
		var r [32]byte
		xmss.RootFromNodes(p, r[:p.N], e.nodes)
		c.mu.Unlock()

		c.signWOTS(ctx, sig[:w], m[:p.N], layer, treeIdx, leafIdx)

		c.mu.Lock()
		if c.entries[k] == e { // skip the store if the entry was evicted meanwhile
			copy(e.wots[int(leafIdx)*w:(int(leafIdx)+1)*w], sig[:w])
			copy(e.tags[lo:lo+p.N], m[:p.N])
			e.filled[leafIdx] = true
			c.wotsFills++
		}
		c.mu.Unlock()
		copy(root[:p.N], r[:p.N])
		return
	}
	c.misses++
	c.mu.Unlock()

	// Miss: build the full subtree (the miss path is the slow path by
	// definition; it may allocate) and install it.
	e := c.newEntry()
	var treeAdrs address.Address
	treeAdrs.SetLayer(uint32(layer))
	treeAdrs.SetTree(treeIdx)
	xmss.TreeNodes(ctx, e.nodes, &treeAdrs)
	c.signWOTS(ctx, sig[:w], m[:p.N], layer, treeIdx, leafIdx)
	xmss.AuthFromNodes(p, sig[w:p.XMSSBytes], e.nodes, leafIdx)
	copy(e.wots[int(leafIdx)*w:(int(leafIdx)+1)*w], sig[:w])
	copy(e.tags[lo:lo+p.N], m[:p.N])
	e.filled[leafIdx] = true
	var r [32]byte
	xmss.RootFromNodes(p, r[:p.N], e.nodes)

	c.mu.Lock()
	if _, exists := c.entries[k]; !exists {
		c.insertLocked(k, e, layer)
	}
	c.mu.Unlock()
	copy(root[:p.N], r[:p.N])
}

func (c *Cache) newEntry() *entry {
	p := c.p
	leaves := 1 << uint(p.TreeHeight)
	return &entry{
		nodes:  make([]byte, xmss.NodesLen(p)),
		wots:   make([]byte, leaves*p.WOTSBytes),
		tags:   make([]byte, leaves*p.N),
		filled: make([]bool, leaves),
	}
}

// insertLocked installs e under k. Pinned layers bypass the LRU; lower
// layers evict from the LRU tail until the entry fits its budget share.
func (c *Cache) insertLocked(k key, e *entry, layer int) {
	if layer >= c.pinFloor {
		c.entries[k] = e
		c.pinnedBytes += c.entrySize
		return
	}
	if c.entrySize > c.lruBudget {
		return // budget cannot retain even one lower-layer subtree
	}
	for c.lruBytes+c.entrySize > c.lruBudget {
		back := c.lru.Back()
		delete(c.entries, back.Value.(key))
		c.lru.Remove(back)
		c.lruBytes -= c.entrySize
		c.evictions++
	}
	e.elem = c.lru.PushFront(k)
	c.entries[k] = e
	c.lruBytes += c.entrySize
}

// Warm populates every pinned layer bottom-up with up to `threads` worker
// goroutines (<= 0 selects GOMAXPROCS), each on its own hash context. For
// layers above the lowest pinned one, the message each leaf signs is the
// root of its (just built) child subtree, so the WOTS+ slots are prefilled
// too: after Warm, those layers are full hits for every signature. The
// lowest pinned layer's slots fill on first use — the signed child roots
// are deterministic, so they also converge to full hits. Warm does not
// touch the hit/miss counters.
func (c *Cache) Warm(threads int) {
	p := c.p
	if c.pinFloor >= p.D {
		return
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	w := p.WOTSBytes
	leaves := 1 << uint(p.TreeHeight)
	var childRoots []byte // previous layer's roots, indexed by tree
	for layer := c.pinFloor; layer < p.D; layer++ {
		trees := 1 << uint(p.H-(layer+1)*p.TreeHeight)
		roots := make([]byte, trees*p.N)
		workers := threads
		if workers > trees {
			workers = trees
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := hashes.NewCtx(p, c.pkSeed, c.skSeed)
				for t := g; t < trees; t += workers {
					e := c.newEntry()
					var adrs address.Address
					adrs.SetLayer(uint32(layer))
					adrs.SetTree(uint64(t))
					xmss.TreeNodes(ctx, e.nodes, &adrs)
					xmss.RootFromNodes(p, roots[t*p.N:(t+1)*p.N], e.nodes)
					if childRoots != nil {
						for j := 0; j < leaves; j++ {
							child := t<<uint(p.TreeHeight) | j
							msg := childRoots[child*p.N : (child+1)*p.N]
							c.signWOTS(ctx, e.wots[j*w:(j+1)*w], msg, layer, uint64(t), uint32(j))
							copy(e.tags[j*p.N:(j+1)*p.N], msg)
							e.filled[j] = true
						}
					}
					k := key{layer: uint8(layer), tree: uint64(t)}
					c.mu.Lock()
					if _, exists := c.entries[k]; !exists {
						c.entries[k] = e
						c.pinnedBytes += c.entrySize
						c.warmed++
					}
					c.mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		childRoots = roots
	}
}
