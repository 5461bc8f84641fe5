package hashes

import (
	"encoding/binary"

	"herosign/internal/sha2"
	"herosign/internal/spx/address"
)

// The chain and hash words are the last eight bytes of the compressed
// address (address.CompressedInto copies ADRS words 5..7 to its tail).
const (
	compChainOff = address.CompressedSize - 8
	compHashOff  = address.CompressedSize - 4
)

// maxW bounds the Winternitz parameter of every valid parameter set; chain
// positions, and so the steps left in a chain, never exceed it.
const maxW = 256

// ChainLanes runs len(starts) independent WOTS+ F-chains in place. Chain k
// holds the N-byte value vals[k*N:(k+1)*N]; it takes one F per hash
// position s in [starts[k], ends[k]) under the address tpls[k/perTpl] with
// chain word k%perTpl and hash word s, and ends holding the chain's last
// value. A chain with ends[k] <= starts[k] is left as it is. ends[k] must
// not exceed W. Only the template's layer, tree, type and key-pair words
// are used.
//
// Scheduling is lane-resident, HERO-Sign's warp discipline on the host:
// each lane keeps one chain's padded block staged in c.laneBlk for as long
// as the chain runs, and after each compression only the value (written
// straight from the digest) and the hash word change. A lane whose chain
// ends stores the value once and is refilled at once from the chains not
// yet started, longest remaining first, so no lane waits at a step barrier
// and the drain is short; once none are left, the last live lane moves into
// the freed slot so every pass compresses a dense prefix of lanes. On the
// native SHA-NI backend the lanes are two, and each pass is a whole chain
// segment inside the fused kernel (sha2.Chain256x2): both staged chains
// run until the shorter ends, with no Go code between compressions. The
// stdlib backend walks each chain on its own. Outputs and the Counters
// charge equal those of the per-chain F calls on every backend.
func (c *Ctx) ChainLanes(vals []byte, starts, ends []uint32, tpls []address.Address, perTpl int) {
	n := c.P.N
	msgLen := address.CompressedSize + n
	var steps int64
	for k := range starts {
		if ends[k] > starts[k] {
			steps += int64(ends[k] - starts[k])
		}
	}
	c.countThash(msgLen, steps)

	// The stdlib backend streams every hash through the platform's
	// hardware SHA-256; lane staging would only add copies there.
	if sha2.Accelerated() {
		for k := range starts {
			a := tpls[k/perTpl]
			a.SetChain(uint32(k % perTpl))
			v := vals[k*n : (k+1)*n]
			for s := starts[k]; s < ends[k]; s++ {
				a.SetHash(s)
				c.thash2(v, v, nil, &a)
			}
		}
		return
	}

	order := c.chainOrderBuf(starts, ends)
	if len(order) == 0 {
		return
	}
	// Every lane carries the F padding for the whole call: refills and the
	// portable kernel's idle-lane fill copy only F-shaped blocks. The
	// thashLanes padding cache cannot describe these blocks, so every lane
	// is marked stale for the next HLanes/FLanes/PRFLanes pass.
	bitLen := uint64(sha2.BlockSize256+msgLen) * 8
	for i := range c.laneBlk {
		blk := &c.laneBlk[i]
		blk[msgLen] = 0x80
		clear(blk[msgLen+1 : sha2.BlockSize256-8])
		binary.BigEndian.PutUint64(blk[sha2.BlockSize256-8:], bitLen)
		c.laneShape[i] = -1
	}

	var chain [sha2.Lanes]int32
	var pos, end [sha2.Lanes]uint32
	stage := func(i int, k int32) {
		chain[i], pos[i], end[i] = k, starts[k], ends[k]
		blk := &c.laneBlk[i]
		tpls[int(k)/perTpl].CompressedInto(blk[:])
		binary.BigEndian.PutUint32(blk[compChainOff:], uint32(int(k)%perTpl))
		binary.BigEndian.PutUint32(blk[compHashOff:], pos[i])
		copy(blk[address.CompressedSize:msgLen], vals[int(k)*n:])
	}
	if sha2.Native() {
		// The fused SHA-NI kernel runs two chains per call, all their
		// common steps inside the assembly. Lanes 0 and 1 hold the two
		// longest remaining chains; each call runs until the shorter ends,
		// and that lane is stored and refilled, longest first. The last
		// chain runs alone: its partner is the spent block of the other
		// lane, whose output nothing reads.
		var live [2]bool
		next := 0
		for i := range live {
			if next < len(order) {
				stage(i, order[next])
				next++
				live[i] = true
			}
		}
		for {
			steps := uint32(maxW + 1)
			for i := range live {
				if live[i] {
					steps = min(steps, end[i]-pos[i])
				}
			}
			if steps > maxW {
				return
			}
			sha2.Chain256x2(&c.seeded, &c.laneBlk[0], &c.laneBlk[1], address.CompressedSize, compHashOff, n, int(steps))
			for i := range live {
				if !live[i] {
					continue
				}
				if pos[i] += steps; pos[i] < end[i] {
					continue
				}
				k := int(chain[i])
				copy(vals[k*n:(k+1)*n], c.laneBlk[i][address.CompressedSize:msgLen])
				if live[i] = next < len(order); live[i] {
					stage(i, order[next])
					next++
				}
			}
		}
	}

	next, active := 0, 0
	for ; active < sha2.Lanes && next < len(order); active++ {
		stage(active, order[next])
		next++
	}
	for active > 0 {
		for i := 0; i < active; i++ {
			c.laneStates[i] = c.seeded
		}
		sha2.Compress256Lanes(active, &c.laneStates, &c.laneBlk)
		for i := 0; i < active; {
			blk := &c.laneBlk[i]
			val := blk[address.CompressedSize:msgLen]
			sha2.PutDigest256(val, &c.laneStates[i])
			if pos[i]++; pos[i] < end[i] {
				binary.BigEndian.PutUint32(blk[compHashOff:], pos[i])
				i++
				continue
			}
			k := int(chain[i])
			copy(vals[k*n:(k+1)*n], val)
			if next < len(order) {
				stage(i, order[next])
				next++
				i++
				continue
			}
			// No chain left to start: move the last live lane, compressed
			// in this same pass, into slot i and settle it there.
			active--
			if i < active {
				chain[i], pos[i], end[i] = chain[active], pos[active], end[active]
				c.laneStates[i] = c.laneStates[active]
				c.laneBlk[i] = c.laneBlk[active]
			}
		}
	}
}

// chainOrderBuf returns the indices of the chains with steps left, longest
// remaining first (a counting sort: no chain has more than W steps). The
// buffer is a Ctx arena, valid until the next ChainLanes call.
func (c *Ctx) chainOrderBuf(starts, ends []uint32) []int32 {
	if cap(c.chainOrder) < len(starts) {
		c.chainOrder = make([]int32, max(len(starts), sha2.Lanes*c.P.WOTSLen))
	}
	var at [maxW + 1]int32 // steps left -> next slot in the order
	for k := range starts {
		if ends[k] > starts[k] {
			at[ends[k]-starts[k]]++
		}
	}
	live := int32(0)
	for r := c.P.W; r > 0; r-- {
		at[r], live = live, live+at[r]
	}
	order := c.chainOrder[:live]
	for k := range starts {
		if ends[k] > starts[k] {
			r := ends[k] - starts[k]
			order[at[r]] = int32(k)
			at[r]++
		}
	}
	return order
}
