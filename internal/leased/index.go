package leased

import (
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/power"
)

// cellIndex is the open-addressed hash index under both of a shard's string
// lookups, the dedup log's request IDs and the client table's names. A cell
// is one uint64: the key's hash's low 32 bits in its high half and a nonzero
// 32-bit value in its low half (0 is an empty cell). The value locates the
// key in its owner's storage, which alone holds the key: the owner confirms
// a candidate the probe hands back. The cell count is a power of two and
// mask is that minus one; a cell belongs at its hash & mask — which its own
// 32 hash bits give, the index never being that long — or the next free cell
// after it (linear probing). An insert that would fill it past half doubles
// it first, so a miss stops at an empty cell after a short run of hash
// comparisons, nearly all of them unequal.
//
// The hash is maphash under a seed of the index's own: keys — client names,
// request IDs — are chosen by clients, and the daemon exists to contain
// hostile ones; a fixed hash would let a client pick keys that all probe from
// one cell. The seed never leaves the process: an index is rebuilt on load,
// never serialised, so snapshots of equal state stay byte-identical.
type cellIndex struct {
	seed  maphash.Seed
	cells []uint64
	mask  uint64
	n     int // keys indexed
}

// newCellIndex is an empty index of two cells.
func newCellIndex() cellIndex {
	return cellIndex{seed: maphash.MakeSeed(), cells: make([]uint64, 2), mask: 1}
}

// hash is key's hash under this index's seed.
func (x *cellIndex) hash(key string) uint64 { return maphash.String(x.seed, key) }

// probe returns the first cell position at or after i, cyclically, whose
// cell is empty or carries h's hash bits, and that cell's value (0 for
// empty). A lookup starts at i = h and, when the owner rejects a candidate,
// resumes at the position after it.
func (x *cellIndex) probe(i, h uint64) (uint64, uint32) {
	for ; ; i++ {
		cell := x.cells[i&x.mask]
		if cell == 0 || cell>>32 == h&math.MaxUint32 {
			return i, uint32(cell)
		}
	}
}

// insert indexes value v under hash h, which the caller has checked is
// absent, doubling the index first if the key would fill it past half.
func (x *cellIndex) insert(h uint64, v uint32) {
	if 2*(x.n+1) > len(x.cells) {
		x.grow()
	}
	x.n++
	x.place(h<<32 | uint64(v))
}

// place puts cell at its home, or the first free cell after it.
func (x *cellIndex) place(cell uint64) {
	i := cell >> 32 & x.mask
	for x.cells[i] != 0 {
		i = (i + 1) & x.mask
	}
	x.cells[i] = cell
}

// remove frees the cell holding value v under hash h and closes the gap:
// each later cell of the same probe run moves back into the hole unless that
// would put it before its own home (backward-shift deletion), so every key
// stays reachable from its hash with no tombstone. The value must be
// indexed under h: a search that reaches the end of h's probe run panics,
// rather than wrap the index for ever.
func (x *cellIndex) remove(h uint64, v uint32) {
	hole := h & x.mask
	for uint32(x.cells[hole]) != v {
		if x.cells[hole] == 0 {
			panic(fmt.Sprintf("leased: value %d is not indexed under hash %#x", v, h))
		}
		hole = (hole + 1) & x.mask
	}
	x.n--
	for i := hole; ; {
		i = (i + 1) & x.mask
		cell := x.cells[i]
		if cell == 0 {
			break
		}
		// The cell at i may fill the hole if its home is not cyclically
		// inside (hole, i].
		if home := cell >> 32 & x.mask; (i-home)&x.mask >= (i-hole)&x.mask {
			x.cells[hole] = cell
			hole = i
		}
	}
	x.cells[hole] = 0
}

// grow doubles the index, re-placing each cell by the hash bits it carries:
// no key is read or hashed again.
func (x *cellIndex) grow() {
	old := x.cells
	x.cells, x.mask = make([]uint64, 2*len(old)), uint64(2*len(old)-1)
	for _, cell := range old {
		if cell != 0 {
			x.place(cell)
		}
	}
}

// clientIndex maps a client name to its shard-local UID: a cellIndex whose
// values are UIDs, confirmed against the name in the UID's client table row,
// so a client costs its row and two to four eight-byte cells. UIDs are 32
// bits here: a shard with 2³² clients would not fit in memory.
type clientIndex struct{ cellIndex }

func newClientIndex() clientIndex { return clientIndex{newCellIndex()} }

// lookup returns the UID of name, whose hash is h, or 0 if it has none. recs
// is the client table the UIDs index.
func (x *clientIndex) lookup(recs []clientRec, name string, h uint64) power.UID {
	for i := h; ; i++ {
		var uid uint32
		if i, uid = x.probe(i, h); uid == 0 || recs[uid].name == name {
			return power.UID(uid)
		}
	}
}

// add indexes uid under its name's hash h, which lookup has found absent.
func (x *clientIndex) add(h uint64, uid power.UID) { x.insert(h, uint32(uid)) }
