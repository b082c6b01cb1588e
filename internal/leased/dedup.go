package leased

import (
	"hash/maphash"
	"math"

	"repro/internal/snapenc"
)

// dedupCache makes mutations idempotent across retries: a client that lost a
// response (crash, dropped connection, timeout) resends the same request
// with the same X-Request-ID and gets the first answer again instead of a
// second application. Bounded FIFO; eviction order is insertion order, so a
// cache rebuilt by journal replay (insertions in log order) matches the
// pre-crash cache exactly.
//
// What an entry keeps is the op's verdict — the fixed-size value its answer
// was rendered from — not the answer's bytes: a hit renders it again
// (shard.appendVerdict) with the client name, shard ID and term length,
// which are fixed for the shard's lifetime, so a retry still gets the first
// answer byte for byte.
//
// The cache is one fixed ring of slots, oldest at head, found through an
// open-addressed index of ring positions (linear probing, at most half
// full). Nothing in it is a runtime map and nothing is allocated per entry
// but the ID string the caller hands over: the entry that evicts a slot
// overwrites it, and its index cell is freed by backward-shift deletion, so
// there are no tombstones to accumulate. Each cell carries 32 bits of its
// entry's hash beside the position, so a probe reads the ring only for an
// entry that very likely is the one sought, and a deletion shifts cells
// without reading the ring at all.
//
// The hash is seeded per cache. Request IDs are chosen by clients, and the
// daemon exists to contain hostile ones: a fixed hash would let a client
// pick IDs that all probe from one cell. The seed never leaves the process
// — the index is rebuilt on load, not serialised — so snapshots of equal
// caches stay byte-identical. An op hashes its ID once (hash) and hands the
// hash to get and put.
type dedupCache struct {
	seed maphash.Seed
	ring []dedupSlot
	head int // ring position of the oldest live entry
	n    int // live entries (≤ len(ring))

	// index maps hash → ring position: a cell is the hash's low 32 bits in
	// its high half and the position + 1 in its low half (0 is an empty
	// cell). Its length is a power of two and mask is that minus one; a cell
	// belongs at its hash & mask — which its own 32 hash bits give, the index
	// never being that long — or the next free cell after it.
	index []uint64
	mask  uint64
}

// dedupSlot is one ring entry, 56 bytes with nothing behind a pointer but
// the ID. hash is kept so that eviction can find the entry's index cell
// without rehashing the string.
type dedupSlot struct {
	id   string
	hash uint64
	v    dedupVerdict
}

// dedupVerdict is what an op's answer said, in the fields verdictOf takes
// from a lease: everything of the lease response but the client name, the
// shard and the term length, which the shard supplies when it renders one.
// uid is 32 bits: a shard with 2³² clients would not fit in memory.
type dedupVerdict struct {
	lease    uint64 // shard-local lease ID
	terms    int64  // 0 for a dead lease
	acquires int64
	uid      uint32
	kind     uint8 // hooks.Kind
	state    uint8 // lease.State
	held     bool
	empty    bool // the op answered with no lease (a mark): the zero response
}

// dedupEntry is one entry in the checkpoint payload, decoded: the request ID
// and its verdict at full width, so restore can refuse what does not fit.
// The JSON tags serve -dump-snapshot.
type dedupEntry struct {
	ID       string `json:"id"`
	Empty    bool   `json:"empty,omitempty"`
	LeaseID  uint64 `json:"lease_id"` // shard-local
	UID      int    `json:"uid"`
	Kind     int    `json:"kind"`
	State    int    `json:"state"`
	Held     bool   `json:"held"`
	Terms    int64  `json:"terms"`
	Acquires int64  `json:"acquires"`
}

// verdict is e as the cache keeps it. restoreStateLocked has checked the
// fields that are narrower there.
func (e *dedupEntry) verdict() dedupVerdict {
	if e.Empty {
		return dedupVerdict{empty: true}
	}
	return dedupVerdict{lease: e.LeaseID, terms: e.Terms, acquires: e.Acquires, uid: uint32(e.UID), kind: uint8(e.Kind), state: uint8(e.State), held: e.Held}
}

func newDedupCache(capacity int) *dedupCache {
	capacity = max(capacity, 0)
	cells := 2
	for cells < 2*capacity {
		cells *= 2
	}
	return &dedupCache{
		seed:  maphash.MakeSeed(),
		ring:  make([]dedupSlot, capacity),
		index: make([]uint64, cells),
		mask:  uint64(cells - 1),
	}
}

func (c *dedupCache) size() int { return c.n }

// hash is id's hash under this cache's seed, for get and put.
func (c *dedupCache) hash(id string) uint64 { return maphash.String(c.seed, id) }

// find returns the ring position of id, whose hash is h, or -1. A miss —
// every first attempt — stops at the first empty cell having compared only
// hash bits, all of them in the index.
func (c *dedupCache) find(id string, h uint64) int {
	for i := h & c.mask; ; i = (i + 1) & c.mask {
		cell := c.index[i]
		if cell == 0 {
			return -1
		}
		if cell>>32 == h&math.MaxUint32 {
			if pos := int(uint32(cell)) - 1; c.ring[pos].id == id {
				return pos
			}
		}
	}
}

// get returns the verdict stored under id, whose hash is h, and whether there
// was one.
func (c *dedupCache) get(id string, h uint64) (dedupVerdict, bool) {
	pos := c.find(id, h)
	if pos < 0 {
		return dedupVerdict{}, false
	}
	return c.ring[pos].v, true
}

// put stores v under id, whose hash is h. A live id keeps its place in the
// eviction order and takes the new verdict; a new one evicts the oldest
// entry once the ring is full.
func (c *dedupCache) put(id string, h uint64, v dedupVerdict) {
	if len(c.ring) == 0 {
		return
	}
	pos := c.find(id, h)
	if pos < 0 {
		if c.n == len(c.ring) {
			// Full: the oldest entry's slot is the next one to write.
			pos = c.head
			c.unindex(pos)
			c.head = (c.head + 1) % len(c.ring)
		} else {
			pos = (c.head + c.n) % len(c.ring)
			c.n++
		}
		c.ring[pos].id, c.ring[pos].hash = id, h
		i := h & c.mask
		for c.index[i] != 0 {
			i = (i + 1) & c.mask
		}
		c.index[i] = h<<32 | uint64(pos+1)
	}
	c.ring[pos].v = v
}

// unindex frees the index cell that points at ring position pos and closes
// the gap: each later entry of the same probe run moves back into the hole
// unless that would put it before its own home cell (backward-shift
// deletion), so every entry stays reachable from its hash with no tombstone.
func (c *dedupCache) unindex(pos int) {
	hole := c.ring[pos].hash & c.mask
	for uint32(c.index[hole]) != uint32(pos+1) {
		hole = (hole + 1) & c.mask
	}
	for i := hole; ; {
		i = (i + 1) & c.mask
		cell := c.index[i]
		if cell == 0 {
			break
		}
		// The entry at i may fill the hole if its home is not cyclically
		// inside (hole, i].
		if home := cell >> 32 & c.mask; (i-home)&c.mask >= (i-hole)&c.mask {
			c.index[hole] = cell
			hole = i
		}
	}
	c.index[hole] = 0
}

// encodeState writes the cache oldest-first into the checkpoint payload: a
// count, then each id and its verdict — a presence byte that is 0 for a
// mark's empty verdict and otherwise 1 and the seven fields.
func (c *dedupCache) encodeState(w *snapenc.Writer) {
	w.Uvarint(uint64(c.n))
	for i := 0; i < c.n; i++ {
		s := &c.ring[(c.head+i)%len(c.ring)]
		w.String(s.id)
		w.Bool(!s.v.empty)
		if !s.v.empty {
			w.Uvarint(s.v.lease)
			w.Int(int(s.v.uid))
			w.Int(int(s.v.kind))
			w.Int(int(s.v.state))
			w.Bool(s.v.held)
			w.Varint(s.v.terms)
			w.Varint(s.v.acquires)
		}
	}
}

// decodeDedupState reads what encodeState wrote. A row is at least two
// bytes (the ID's length prefix and the presence byte), which bounds the
// count — see snapenc.Reader.Count.
func decodeDedupState(r *snapenc.Reader) []dedupEntry {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	out := make([]dedupEntry, n)
	for i := range out {
		e := &out[i]
		e.ID = r.String()
		if e.Empty = !r.Bool(); e.Empty {
			continue
		}
		e.LeaseID = r.Uvarint()
		e.UID = r.Int()
		e.Kind = r.Int()
		e.State = r.Int()
		e.Held = r.Bool()
		e.Terms = r.Varint()
		e.Acquires = r.Varint()
	}
	return out
}
