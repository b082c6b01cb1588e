package leased

import "repro/internal/snapenc"

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
// The cache is one ring of slots, oldest at head, found through a cellIndex
// of ring positions + 1. The ring grows geometrically with the entries it
// holds (doubling to 1 024 slots, then by a quarter) up to the window; head
// stays 0 until the window is full, so growing moves no entry's position.
// Only a full window evicts. Nothing in it is a runtime map, and once the
// window is full nothing is allocated per entry but the ID string the caller
// hands over: the entry that evicts a slot overwrites it, and its index cell
// is freed by backward-shift deletion, so there are no tombstones. The
// index cell's 32 hash bits are the only copy of the hash: a probe reads the
// ring only for an entry that very likely is the one sought, and an eviction
// hashes the evicted ID again to find its cell. An op hashes its ID once
// (hash, under the index's own seed) and hands the hash to get and put.
type dedupCache struct {
	ring      []dedupSlot
	head      int // ring position of the oldest live entry
	window    int // the most entries the ring grows to hold
	cellIndex     // its n counts the live entries (≤ len(ring))
}

// dedupSlot is one ring entry, 48 bytes with nothing behind a pointer but
// the ID.
type dedupSlot struct {
	id string
	v  dedupVerdict
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
// and its verdict at full width, so validate can refuse what does not fit.
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

// verdict is e as the cache keeps it. validate has checked the fields that
// are narrower there.
func (e *dedupEntry) verdict() dedupVerdict {
	if e.Empty {
		return dedupVerdict{empty: true}
	}
	return dedupVerdict{lease: e.LeaseID, terms: e.Terms, acquires: e.Acquires, uid: uint32(e.UID), kind: uint8(e.Kind), state: uint8(e.State), held: e.Held}
}

func newDedupCache(window int) *dedupCache {
	return &dedupCache{window: max(window, 0), cellIndex: newCellIndex()}
}

func (c *dedupCache) size() int { return c.n }

// find returns the ring position of id, whose hash is h, or -1. A miss —
// every first attempt — stops at the first empty cell having compared only
// hash bits, all of them in the index.
func (c *dedupCache) find(id string, h uint64) int {
	for i := h; ; i++ {
		var v uint32
		if i, v = c.probe(i, h); v == 0 {
			return -1
		}
		if pos := int(v) - 1; c.ring[pos].id == id {
			return pos
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
// entry once the window is full.
func (c *dedupCache) put(id string, h uint64, v dedupVerdict) {
	if c.window == 0 {
		return
	}
	pos := c.find(id, h)
	if pos < 0 {
		if c.n == len(c.ring) && c.n < c.window {
			c.growRing()
		}
		if c.n < len(c.ring) {
			pos = c.n // head is 0 until the window is full
		} else {
			// Full: the oldest entry's slot is the next one to write. Only
			// a full window evicts, once per new entry, so the evicted ID
			// is hashed again here rather than its hash kept in the slot.
			pos = c.head
			c.remove(c.hash(c.ring[pos].id), uint32(pos+1))
			c.head = (c.head + 1) % len(c.ring)
		}
		c.ring[pos].id = id
		c.insert(h, uint32(pos+1))
	}
	c.ring[pos].v = v
}

// growRing gives a full ring below the window more slots: twice as many up to
// 1 024, a quarter more after that, at least 16 and at most the window. The
// entries keep their positions, so the index's values stay valid.
func (c *dedupCache) growRing() {
	n := len(c.ring)
	if n < 1024 {
		n = max(2*n, 16)
	} else {
		n += n / 4
	}
	ring := make([]dedupSlot, min(n, c.window))
	copy(ring, c.ring)
	c.ring = ring
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
