package leased

import (
	"hash/maphash"
	"math"

	"repro/internal/snapenc"
)

// dedupCache makes mutations idempotent across retries: a client that lost a
// response (crash, dropped connection, timeout) resends the same request
// with the same X-Request-ID and gets the stored response back instead of a
// second application. Bounded FIFO; eviction order is insertion order, so a
// cache rebuilt by journal replay (insertions in log order) matches the
// pre-crash cache exactly.
//
// The cache is one fixed ring of entries, oldest at head, found through an
// open-addressed index of ring positions (linear probing, at most half
// full). Nothing in it is a runtime map and nothing is allocated per entry
// but the ID string the caller hands over: the entry that evicts a slot
// overwrites its ID and reuses its body buffer, and its index cell is freed
// by backward-shift deletion, so there are no tombstones to accumulate.
// Each cell carries 32 bits of its entry's hash beside the position, so a
// probe reads the ring only for an entry that very likely is the one sought,
// and a deletion shifts cells without reading the ring at all.
// Because a slot's buffer is rewritten by a later put, a hit is handed out
// as a copy (get appends it to the caller's buffer), never as a view.
//
// The hash is seeded per cache. Request IDs are chosen by clients, and the
// daemon exists to contain hostile ones: a fixed hash would let a client
// pick IDs that all probe from one cell. The seed never leaves the process
// — the index is rebuilt on load, not serialised — so snapshots of equal
// caches stay byte-identical.
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

// dedupSlot is one ring entry. hash is kept so that eviction can find the
// entry's index cell without rehashing the string.
type dedupSlot struct {
	id   string
	hash uint64
	body []byte // owned by the slot; recycled by whichever entry evicts it
}

// dedupEntry is one cached response in the checkpoint payload.
type dedupEntry struct {
	ID   string `json:"id"`
	Resp []byte `json:"resp"` // base64 in the -dump-snapshot view; raw bytes on disk
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

// get appends id's stored response to dst and reports whether there was one.
func (c *dedupCache) get(dst []byte, id string) ([]byte, bool) {
	pos := c.find(id, maphash.String(c.seed, id))
	if pos < 0 {
		return dst, false
	}
	return append(dst, c.ring[pos].body...), true
}

// put stores a copy of resp under id. A live id keeps its place in the
// eviction order and takes the new response; a new one evicts the oldest
// entry once the ring is full.
func (c *dedupCache) put(id string, resp []byte) {
	if len(c.ring) == 0 {
		return
	}
	h := maphash.String(c.seed, id)
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
	s := &c.ring[pos]
	s.body = append(s.body[:0], resp...)
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

// encodeState writes the cache oldest-first into the checkpoint payload:
// a count, then each id and its stored response as raw bytes.
func (c *dedupCache) encodeState(w *snapenc.Writer) {
	w.Uvarint(uint64(c.n))
	for i := 0; i < c.n; i++ {
		s := &c.ring[(c.head+i)%len(c.ring)]
		w.String(s.id)
		w.Bytes(s.body)
	}
}

// decodeDedupState reads what encodeState wrote. A row is at least two
// bytes (two length prefixes), which bounds the count — see
// snapenc.Reader.Count.
func decodeDedupState(r *snapenc.Reader) []dedupEntry {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	out := make([]dedupEntry, n)
	for i := range out {
		out[i] = dedupEntry{ID: r.String(), Resp: r.Bytes()}
	}
	return out
}

// load refills the cache from a checkpoint payload.
func (c *dedupCache) load(entries []dedupEntry) {
	for _, e := range entries {
		c.put(e.ID, e.Resp)
	}
}
