package leased

import "repro/internal/snapenc"

// dedupCache makes mutations idempotent across retries: a client that lost a
// response (crash, dropped connection, timeout) resends the same request
// with the same X-Request-ID and gets the stored response back instead of a
// second application. Bounded FIFO; eviction order is insertion order, so a
// cache rebuilt by journal replay (insertions in log order) matches the
// pre-crash cache exactly.
//
// The id queue is a fixed-capacity ring buffer, not a sliced-forward slice:
// evicting with order = order[1:] would keep the backing array alive, so a
// long-lived daemon would pin every evicted request-ID string (and, through
// the map, every evicted response body) forever. The ring reuses its cap
// slots in place and the map delete drops the response, so retention is
// bounded by cap regardless of how many requests ever passed through.
type dedupCache struct {
	cap  int
	m    map[string][]byte
	ring []string // circular id queue; oldest at head
	head int      // index of the oldest live entry
	n    int      // live entries (≤ cap)
}

// dedupEntry is one cached response in the checkpoint payload.
type dedupEntry struct {
	ID   string `json:"id"`
	Resp []byte `json:"resp"` // base64 in the -dump-snapshot view; raw bytes on disk
}

func newDedupCache(capacity int) *dedupCache {
	return &dedupCache{
		cap:  capacity,
		m:    make(map[string][]byte, capacity),
		ring: make([]string, capacity),
	}
}

func (c *dedupCache) get(id string) ([]byte, bool) {
	raw, ok := c.m[id]
	return raw, ok
}

func (c *dedupCache) size() int { return c.n }

func (c *dedupCache) put(id string, resp []byte) {
	if _, ok := c.m[id]; ok {
		c.m[id] = resp
		return
	}
	if c.cap <= 0 {
		return
	}
	if c.n == c.cap {
		// Full: the tail slot is the head slot. Evict the oldest — map
		// delete releases its response; overwriting the ring slot releases
		// its id string — and advance the head.
		delete(c.m, c.ring[c.head])
		c.ring[c.head] = id
		c.head = (c.head + 1) % c.cap
	} else {
		c.ring[(c.head+c.n)%c.cap] = id
		c.n++
	}
	c.m[id] = resp
}

// encodeState writes the cache oldest-first into the checkpoint payload:
// a count, then each id and its stored response as raw bytes.
func (c *dedupCache) encodeState(w *snapenc.Writer) {
	w.Uvarint(uint64(c.n))
	for i := 0; i < c.n; i++ {
		id := c.ring[(c.head+i)%c.cap]
		w.String(id)
		w.Bytes(c.m[id])
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
