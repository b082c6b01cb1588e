package leased

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"unsafe"

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
// The cache is one append-only byte log, oldest entry at head, found through
// a cellIndex of log offsets + 1. An entry is
//
//	[ID length][ID bytes][verdict width w][verdict: w bytes of varints]
//
// A new ID is appended at the tail, its bytes copied from the caller's view
// of them (a request buffer); a full window first evicts the entry at head,
// hashing its ID again to find and free its cell — backward-shift deletion,
// so there are no tombstones — and moving head past it. The bytes before
// head are dead. When the log is out of room and they are at least half of
// it, the live suffix is copied to the front and head's offset is taken off
// every cell, so a compaction is paid for by the evictions that made its
// dead bytes; otherwise the log grows (doubling to 32 KiB, then by a
// quarter, while the window fills; to twice its live bytes once it evicts).
// Neither the log nor the cells hold a pointer: the collector never scans
// them, and once the log has reached its size a put allocates nothing. The
// index cell's 32 hash bits are the only copy of the hash: a probe reads the
// log only for an entry that very likely is the one sought. An op hashes its
// ID once (hashID, under the index's own seed) and hands the hash to get and
// put.
type dedupCache struct {
	log       []byte
	head      int // log offset of the oldest live entry
	window    int // the most entries the log holds
	cellIndex     // its n counts the live entries
}

// The bounds an entry's bytes are laid out within: a request ID fits its
// one-byte length (every door refuses a longer one), a packed verdict its
// width byte, and the log's offsets the index's 32-bit values. The log is
// at most twice its live bytes and one entry, so a window of maxDedupWindow
// entries keeps every offset below 2³², and newDedupCache holds a larger
// one to it (a log of gigabytes).
const (
	maxVerdictBytes = 3 + 3*binary.MaxVarintLen64 + binary.MaxVarintLen32
	maxEntryBytes   = 2 + maxRequestIDLen + maxVerdictBytes
	maxDedupWindow  = math.MaxUint32 / (4 * maxEntryBytes)
)

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
	return &dedupCache{window: min(max(window, 0), maxDedupWindow), cellIndex: newCellIndex()}
}

func (c *dedupCache) size() int { return c.n }

// footprint is what the cache occupies: its log and its index.
func (c *dedupCache) footprint() int { return cap(c.log) + 8*cap(c.cells) }

// hashID is id's hash under the index's seed.
func (c *dedupCache) hashID(id []byte) uint64 { return maphash.Bytes(c.seed, id) }

// idAt is the ID of the entry at log offset off, a view into the log.
func (c *dedupCache) idAt(off int) []byte { return c.log[off+1 : off+1+int(c.log[off])] }

// widthAt is the log offset of the verdict width byte of the entry at off.
func (c *dedupCache) widthAt(off int) int { return off + 1 + int(c.log[off]) }

// next is the log offset of the entry after the one at off.
func (c *dedupCache) next(off int) int {
	w := c.widthAt(off)
	return w + 1 + int(c.log[w])
}

// verdictAt is the verdict of the entry at off.
func (c *dedupCache) verdictAt(off int) dedupVerdict {
	w := c.widthAt(off)
	return unpackVerdict(c.log[w+1 : w+1+int(c.log[w])])
}

// find returns the log offset of id, whose hash is h, or -1. A miss — every
// first attempt — stops at the first empty cell having compared only hash
// bits, all of them in the index.
func (c *dedupCache) find(id []byte, h uint64) int {
	for i := h; ; i++ {
		var v uint32
		if i, v = c.probe(i, h); v == 0 {
			return -1
		}
		if off := int(v) - 1; bytes.Equal(c.idAt(off), id) {
			return off
		}
	}
}

// get returns the verdict stored under id, whose hash is h, and whether there
// was one.
func (c *dedupCache) get(id []byte, h uint64) (dedupVerdict, bool) {
	off := c.find(id, h)
	if off < 0 {
		return dedupVerdict{}, false
	}
	return c.verdictAt(off), true
}

// put stores v under id, whose hash is h, copying id's bytes: the caller's
// view of them need outlive only the call. A live id keeps its place in the
// eviction order and takes the new verdict; a new one evicts the oldest
// entry once the window is full. id is at most maxRequestIDLen bytes.
func (c *dedupCache) put(id []byte, h uint64, v dedupVerdict) {
	if c.window == 0 {
		return
	}
	var buf [maxVerdictBytes]byte
	packed := packVerdict(buf[:0], &v)
	if off := c.find(id, h); off >= 0 {
		c.rewrite(off, packed)
		return
	}
	if c.n == c.window {
		// Only a full window evicts, once per new entry, so the evicted ID
		// is hashed again here rather than its hash kept in the log.
		off := c.head
		c.remove(c.hashID(c.idAt(off)), uint32(off+1))
		c.head = c.next(off)
	}
	c.room(2 + len(id) + len(packed))
	off := len(c.log)
	c.log = append(c.log, byte(len(id)))
	c.log = append(c.log, id...)
	c.log = append(c.log, byte(len(packed)))
	c.log = append(c.log, packed...)
	c.insert(h, uint32(off+1))
}

// rewrite makes packed the verdict of the entry at off. An entry's verdict
// width is set when it is appended, and a narrower verdict is zero-padded to
// it. A wider one — a replayed record under an ID the cache still holds,
// whose answer takes more varint bytes — widens the entry where it stands:
// the log after it moves up, and every later entry's cell with it.
func (c *dedupCache) rewrite(off int, packed []byte) {
	at := c.widthAt(off)
	w := int(c.log[at])
	if wider := len(packed) - w; wider > 0 {
		end := at + 1 + w
		c.log = append(c.log, packed[:wider]...)
		copy(c.log[end+wider:], c.log[end:])
		for i, cell := range c.cells {
			if cell != 0 && int(uint32(cell))-1 > off {
				c.cells[i] = cell + uint64(wider)
			}
		}
		w = len(packed)
		c.log[at] = byte(w)
	}
	clear(c.log[at+1+copy(c.log[at+1:], packed) : at+1+w])
}

// room makes space for n more bytes at the log's tail. When the dead bytes
// before head are at least half the log and that frees enough, it compacts
// the log in place; otherwise it moves the live entries into a larger log.
// Either way they move down by head bytes, and every cell's offset with them.
func (c *dedupCache) room(n int) {
	if len(c.log)+n <= cap(c.log) {
		return
	}
	live := len(c.log) - c.head
	dst := c.log[:live]
	if c.head < live || cap(c.log)-live < n {
		size := live + n
		switch {
		case c.head > 0: // evicting: room for as many dead bytes as live ones
			size += live
		case cap(c.log) < 32<<10:
			size = max(size, 2*cap(c.log), 256)
		default:
			size = max(size, cap(c.log)+cap(c.log)/4)
		}
		dst = make([]byte, live, size)
	}
	copy(dst, c.log[c.head:])
	if c.head > 0 {
		for i, cell := range c.cells {
			if cell != 0 {
				c.cells[i] = cell - uint64(c.head)
			}
		}
	}
	c.log, c.head = dst, 0
}

// packVerdict appends v's log form to b: a tag byte — 0 for a mark's empty
// verdict, which is all of it; 1, or 2 if held — then kind and state, a byte
// each, and lease, uid, terms and acquires as varints.
func packVerdict(b []byte, v *dedupVerdict) []byte {
	if v.empty {
		return append(b, 0)
	}
	tag := byte(1)
	if v.held {
		tag = 2
	}
	b = append(b, tag, v.kind, v.state)
	b = binary.AppendUvarint(b, v.lease)
	b = binary.AppendUvarint(b, uint64(v.uid))
	b = binary.AppendVarint(b, v.terms)
	return binary.AppendVarint(b, v.acquires)
}

// unpackVerdict reads what packVerdict wrote, ignoring padding after it.
func unpackVerdict(b []byte) dedupVerdict {
	if b[0] == 0 {
		return dedupVerdict{empty: true}
	}
	v := dedupVerdict{held: b[0] == 2, kind: b[1], state: b[2]}
	b = b[3:]
	var n int
	v.lease, n = binary.Uvarint(b)
	b = b[n:]
	uid, n := binary.Uvarint(b)
	v.uid, b = uint32(uid), b[n:]
	v.terms, n = binary.Varint(b)
	v.acquires, _ = binary.Varint(b[n:])
	return v
}

// encodeState writes the cache oldest-first into the checkpoint payload: a
// count, then each id and its verdict — a presence byte that is 0 for a
// mark's empty verdict and otherwise 1 and the seven fields.
func (c *dedupCache) encodeState(w *snapenc.Writer) {
	w.Uvarint(uint64(c.n))
	for off := c.head; off < len(c.log); off = c.next(off) {
		v := c.verdictAt(off)
		w.String(viewString(c.idAt(off)))
		w.Bool(!v.empty)
		if !v.empty {
			w.Uvarint(v.lease)
			w.Int(int(v.uid))
			w.Int(int(v.kind))
			w.Int(int(v.state))
			w.Bool(v.held)
			w.Varint(v.terms)
			w.Varint(v.acquires)
		}
	}
}

// Request IDs reach the cache as views of the bytes they came in — a
// request's header or body, a journal record — valid for the op, and the
// cache copies what it keeps, so no path makes a string per ID. These two
// view one form as the other without a copy, for a reader that is done with
// the view before its source can change.

// viewString views b as a string, for a callee that copies it
// (snapenc.Writer.String).
func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// viewBytes views s as bytes that nothing may write to: net/http's
// X-Request-ID value as an op's request ID, a restored entry's ID as put's.
func viewBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

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
