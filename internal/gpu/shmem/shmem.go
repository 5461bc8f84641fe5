// Package shmem models CUDA shared memory at byte granularity with the
// 32-bank × 4-byte organization that causes bank conflicts, and implements
// the generalized padding strategy of HERO-Sign §III-E:
//
//	Eq. 2:  128     = B_n × 4 × T_h   (16- and 32-byte node accesses)
//	Eq. 3:  128 × R = B_n × 4 × T_h   (24-byte node accesses, R = 3)
//
// A padding bank (4 bytes) is inserted after every RowBytes of logical data,
// skewing subsequent addresses across banks. Kernels read and write through
// logical offsets; the package translates to physical addresses, stores the
// actual bytes (the simulator is functional, not just a counter), and
// counts transactions and conflict wavefronts per warp the way Nsight
// reports shared_ld/st_bank_conflict.
package shmem

import "fmt"

// Banks is the number of shared-memory banks on all modeled architectures.
const Banks = 32

// BankBytes is the width of one bank word.
const BankBytes = 4

// TransactionBytes is the size of one shared-memory transaction row.
const TransactionBytes = 128

// Padding describes the bank-padding layout.
type Padding struct {
	// RowBytes is the logical byte count after which one padding bank is
	// inserted. Zero disables padding.
	RowBytes int
}

// None is the unpadded layout.
var None = Padding{}

// ForNodeBytes returns the paper's padding rule for a per-thread access
// width of nodeBytes (16, 24 or 32; other multiples of 4 are handled by the
// same generalized formula).
//
// For widths dividing 128 (Eq. 2) the row is one 128-byte transaction.
// Otherwise (Eq. 3) the row extends to R contiguous 128-byte rows where
// R is the smallest integer making 128·R divisible by the access width
// (R = 3 for 24-byte accesses).
func ForNodeBytes(nodeBytes int) Padding {
	if nodeBytes <= 0 || nodeBytes%BankBytes != 0 {
		panic(fmt.Sprintf("shmem: unsupported node width %d", nodeBytes))
	}
	row := TransactionBytes
	for row%nodeBytes != 0 {
		row += TransactionBytes
	}
	return Padding{RowBytes: row}
}

// Stats accumulates shared-memory traffic for one kernel block.
type Stats struct {
	LoadTransactions  int64
	StoreTransactions int64
	LoadConflicts     int64 // extra serialized wavefronts on loads
	StoreConflicts    int64 // extra serialized wavefronts on stores
}

// Add merges other into s.
func (s *Stats) Add(other *Stats) {
	s.LoadTransactions += other.LoadTransactions
	s.StoreTransactions += other.StoreTransactions
	s.LoadConflicts += other.LoadConflicts
	s.StoreConflicts += other.StoreConflicts
}

// access is one pending per-thread access awaiting warp settlement.
type access struct {
	tid      int
	physOff  int
	numBytes int
	store    bool
}

// Memory is a shared-memory allocation with a padding layout.
type Memory struct {
	pad     Padding
	logical int
	data    []byte
	stats   Stats
	pending []access
}

// New allocates logicalBytes of shared memory under the given layout.
func New(logicalBytes int, pad Padding) *Memory {
	return &Memory{
		pad:     pad,
		logical: logicalBytes,
		data:    make([]byte, physicalSize(logicalBytes, pad)),
	}
}

func physicalSize(logical int, pad Padding) int {
	if pad.RowBytes == 0 {
		return logical
	}
	rows := (logical + pad.RowBytes - 1) / pad.RowBytes
	return logical + rows*BankBytes
}

// PhysicalSize returns the footprint including padding banks — the number
// that counts against the device's shared-memory-per-block limit.
func (m *Memory) PhysicalSize() int { return len(m.data) }

// LogicalSize returns the unpadded data size.
func (m *Memory) LogicalSize() int { return m.logical }

// Stats returns the accumulated traffic counters.
func (m *Memory) Stats() *Stats { return &m.stats }

// physical maps a logical offset to its padded physical offset.
func (m *Memory) physical(logical int) int {
	if m.pad.RowBytes == 0 {
		return logical
	}
	return logical + (logical/m.pad.RowBytes)*BankBytes
}

// Read copies numBytes at the logical offset into out on behalf of thread
// tid. The access is recorded for warp-level conflict accounting at the
// next Settle.
func (m *Memory) Read(tid, logicalOff int, out []byte) {
	off := m.physical(logicalOff)
	copy(out, m.data[off:off+len(out)])
	m.pending = append(m.pending, access{tid: tid, physOff: off, numBytes: len(out)})
}

// Write copies in to the logical offset on behalf of thread tid.
func (m *Memory) Write(tid, logicalOff int, in []byte) {
	off := m.physical(logicalOff)
	copy(m.data[off:off+len(in)], in)
	m.pending = append(m.pending, access{tid: tid, physOff: off, numBytes: len(in), store: true})
}

// Peek reads without recording traffic (host-side/debug inspection).
func (m *Memory) Peek(logicalOff int, out []byte) {
	off := m.physical(logicalOff)
	copy(out, m.data[off:off+len(out)])
}

// Settle groups all pending accesses by warp and instruction step, splits
// them into 128-byte wavefront groups and counts transactions and bank
// conflicts. Kernels call it at each barrier (the simulator's Sync does it
// automatically).
//
// The model: within one warp-instruction, the LSU services requests in
// phases of up to 128 bytes (32 bank words). All words of one phase are
// issued together; if two lanes need *different* words that live in the
// same bank, the phase replays — one extra wavefront per additional
// distinct word in the most-contended bank (same-word access broadcasts).
func (m *Memory) Settle() {
	if len(m.pending) == 0 {
		return
	}
	// Group by (warp, store). Accesses arrive in tid order per logical
	// instruction because kernels iterate lanes in order; one Settle per
	// phase means each (warp, op) group corresponds to the per-lane accesses
	// of that phase. Within a group, lanes execute the same instruction
	// sequence, so the i-th access of each lane forms one warp instruction.
	type key struct {
		warp  int
		store bool
	}
	groups := make(map[key][][]access)
	for _, a := range m.pending {
		k := key{warp: a.tid / 32, store: a.store}
		lane := a.tid % 32
		g := groups[k]
		// Find the first instruction slot where this lane has no access yet.
		placed := false
		for i := range g {
			found := false
			for _, prev := range g[i] {
				if prev.tid%32 == lane {
					found = true
					break
				}
			}
			if !found {
				g[i] = append(g[i], a)
				placed = true
				break
			}
		}
		if !placed {
			groups[k] = append(g, []access{a})
		} else {
			groups[k] = g
		}
	}
	for k, instrs := range groups {
		for _, lanes := range instrs {
			trans, conflicts := warpConflicts(lanes)
			if k.store {
				m.stats.StoreTransactions += int64(trans)
				m.stats.StoreConflicts += int64(conflicts)
			} else {
				m.stats.LoadTransactions += int64(trans)
				m.stats.LoadConflicts += int64(conflicts)
			}
		}
	}
	m.pending = m.pending[:0]
}

// warpConflicts computes (wavefronts, extra conflict wavefronts) for the
// per-lane accesses of one warp instruction.
func warpConflicts(lanes []access) (int, int) {
	// Expand every lane's access into 4-byte word addresses, then process
	// in phases of 32 words (128 bytes of request traffic per phase, the
	// hardware wavefront granularity for vectorized accesses).
	var ph phase
	trans, phases := 0, 0
	for _, a := range lanes {
		first := a.physOff / BankBytes
		last := (a.physOff + a.numBytes - 1) / BankBytes
		for w := first; w <= last; w++ {
			ph.add(w)
			if ph.n == Banks {
				trans += ph.flush()
				phases++
			}
		}
	}
	if ph.n > 0 {
		trans += ph.flush()
		phases++
	}
	return trans, trans - phases
}

// phase collects the word addresses of one request phase by bank. It is a
// fixed-size value: settling a warp access allocates nothing.
type phase struct {
	n     int               // words added, repeats included
	depth [Banks]int        // distinct words seen per bank
	words [Banks][Banks]int // the distinct words of each bank
	worst int               // the largest depth
}

// add records one word access; a repeat of a word already in its bank is a
// broadcast and costs nothing.
func (ph *phase) add(w int) {
	ph.n++
	b := w % Banks
	for _, seen := range ph.words[b][:ph.depth[b]] {
		if seen == w {
			return
		}
	}
	ph.words[b][ph.depth[b]] = w
	ph.depth[b]++
	ph.worst = max(ph.worst, ph.depth[b])
}

// flush returns the phase's wavefronts — one per distinct word in its most
// contended bank — and empties it.
func (ph *phase) flush() int {
	wavefronts := ph.worst
	ph.n, ph.worst, ph.depth = 0, 0, [Banks]int{}
	return wavefronts
}
