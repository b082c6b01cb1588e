package leased

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/snapenc"
)

// lookup is get into a fresh buffer.
func (c *dedupCache) lookup(id string) ([]byte, bool) { return c.get(nil, id) }

// indexed counts the index's occupied cells.
func (c *dedupCache) indexed() int {
	n := 0
	for _, cell := range c.index {
		if cell != 0 {
			n++
		}
	}
	return n
}

// TestDedupBoundedRetention fills the cache many times over its cap and
// checks retention stays bounded: exactly cap live entries, ring and index
// in lockstep, and only the newest cap ids resident. This is the regression
// test for the sliced-forward eviction (order = order[1:]) that kept the
// backing array — and through it every evicted id and response — reachable
// forever.
func TestDedupBoundedRetention(t *testing.T) {
	const cap = 8
	c := newDedupCache(cap)
	cells := len(c.index)
	const total = 10 * cap
	for i := 0; i < total; i++ {
		c.put(fmt.Sprintf("req-%03d", i), []byte(fmt.Sprintf("resp-%03d", i)))
	}
	if c.size() != cap {
		t.Fatalf("size = %d after %d inserts, want %d", c.size(), total, cap)
	}
	if n := c.indexed(); n != cap {
		t.Fatalf("index holds %d entries, want %d (evicted ids not unindexed)", n, cap)
	}
	if len(c.ring) != cap || len(c.index) != cells {
		t.Fatalf("ring grew to %d slots and index to %d cells, want fixed %d and %d", len(c.ring), len(c.index), cap, cells)
	}
	// Only the newest cap survive; everything older is gone.
	for i := 0; i < total-cap; i++ {
		if _, ok := c.lookup(fmt.Sprintf("req-%03d", i)); ok {
			t.Fatalf("evicted id req-%03d still resident", i)
		}
	}
	for i := total - cap; i < total; i++ {
		raw, ok := c.lookup(fmt.Sprintf("req-%03d", i))
		if !ok {
			t.Fatalf("live id req-%03d missing", i)
		}
		if want := fmt.Sprintf("resp-%03d", i); string(raw) != want {
			t.Fatalf("req-%03d = %q, want %q", i, raw, want)
		}
	}
}

// entries lists the cache oldest-first, as a checkpoint would carry it.
func (c *dedupCache) entries() []dedupEntry {
	w := snapenc.NewWriter(nil)
	c.encodeState(w)
	return decodeDedupState(snapenc.NewReader(w.Payload()))
}

// TestDedupFIFOOrder pins the eviction order and the entries() listing:
// oldest-first, insertion order, across multiple wrap-arounds.
func TestDedupFIFOOrder(t *testing.T) {
	const cap = 4
	c := newDedupCache(cap)
	for i := 0; i < 11; i++ {
		c.put(fmt.Sprintf("id-%02d", i), []byte{byte(i)})
	}
	got := c.entries()
	if len(got) != cap {
		t.Fatalf("entries() len %d, want %d", len(got), cap)
	}
	for j, e := range got {
		want := fmt.Sprintf("id-%02d", 11-cap+j)
		if e.ID != want {
			t.Fatalf("entries()[%d] = %s, want %s (FIFO broken)", j, e.ID, want)
		}
	}
	// A round-trip through entries/load preserves contents and order — the
	// property checkpoint restore depends on.
	c2 := newDedupCache(cap)
	c2.load(got)
	got2 := c2.entries()
	for j := range got {
		if got[j].ID != got2[j].ID || string(got[j].Resp) != string(got2[j].Resp) {
			t.Fatalf("load/entries round-trip diverged at %d: %+v vs %+v", j, got[j], got2[j])
		}
	}
}

// TestDedupUpdateInPlace: re-putting a live id must replace its response
// without consuming a ring slot or disturbing eviction order.
func TestDedupUpdateInPlace(t *testing.T) {
	c := newDedupCache(3)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.put("a", []byte("1b"))
	c.put("c", []byte("3"))
	if c.size() != 3 {
		t.Fatalf("size = %d, want 3", c.size())
	}
	if raw, _ := c.lookup("a"); string(raw) != "1b" {
		t.Fatalf("a = %q, want updated 1b", raw)
	}
	// Next insert evicts "a" (still oldest), not "b".
	c.put("d", []byte("4"))
	if _, ok := c.lookup("a"); ok {
		t.Fatal("a survived eviction; update must not refresh FIFO position")
	}
	if _, ok := c.lookup("b"); !ok {
		t.Fatal("b was wrongly evicted")
	}
}

// TestDedupZeroCapacity: a zero-cap cache holds nothing and never panics.
func TestDedupZeroCapacity(t *testing.T) {
	c := newDedupCache(0)
	c.put("x", []byte("y"))
	if c.size() != 0 {
		t.Fatalf("size = %d, want 0", c.size())
	}
	if _, ok := c.lookup("x"); ok {
		t.Fatal("zero-cap cache retained an entry")
	}
}

// dedupModel is the cache's specification: a map for the contents, a slice
// for the FIFO order.
type dedupModel struct {
	cap   int
	m     map[string][]byte
	order []string // oldest first
}

func (m *dedupModel) put(id string, resp []byte) {
	if _, live := m.m[id]; !live {
		if m.cap == 0 {
			return
		}
		if len(m.order) == m.cap {
			delete(m.m, m.order[0])
			m.order = m.order[1:]
		}
		m.order = append(m.order, id)
	}
	m.m[id] = append([]byte(nil), resp...)
}

// checkDedupAgainstModel interprets script as an op stream — put, get, and
// encode → load into a fresh cache — run against the cache and the model
// side by side. IDs come from a small alphabet so that updates, hits and
// evictions all occur; responses vary in length so recycled buffers both
// shrink and grow. After every op: same size, index occupancy equal to it,
// and every hit ever handed out still holds the bytes it was handed — however
// often its slot has been evicted and rewritten since.
func checkDedupAgainstModel(t *testing.T, capacity int, script []byte) {
	t.Helper()
	c := newDedupCache(capacity)
	model := &dedupModel{cap: capacity, m: map[string][]byte{}}
	type handedOut struct{ got, want []byte }
	var hits []handedOut
	for pc := 0; pc+1 < len(script); pc += 2 {
		op, arg := script[pc], script[pc+1]
		id := fmt.Sprintf("id-%d", arg%24)
		switch op % 8 {
		case 0, 1, 2, 3: // put
			resp := bytes.Repeat([]byte{arg}, int(op)%61)
			c.put(id, resp)
			model.put(id, resp)
		case 4, 5, 6: // get
			got, hit := c.lookup(id)
			want, live := model.m[id]
			if hit != live || !bytes.Equal(got, want) {
				t.Fatalf("op %d: get(%s) = %q, %v; the model says %q, %v", pc/2, id, got, hit, want, live)
			}
			if hit {
				hits = append(hits, handedOut{got, append([]byte(nil), want...)})
			}
		case 7: // checkpoint and restore
			entries := c.entries()
			if len(entries) != len(model.order) {
				t.Fatalf("op %d: entries() lists %d, the model holds %d", pc/2, len(entries), len(model.order))
			}
			for i, e := range entries {
				if e.ID != model.order[i] || !bytes.Equal(e.Resp, model.m[e.ID]) {
					t.Fatalf("op %d: entries()[%d] = %s %q, the model's is %s %q", pc/2, i, e.ID, e.Resp, model.order[i], model.m[model.order[i]])
				}
			}
			c = newDedupCache(capacity)
			c.load(entries)
		}
		if c.size() != len(model.order) || c.indexed() != c.size() {
			t.Fatalf("op %d: size %d with %d index cells occupied, the model holds %d", pc/2, c.size(), c.indexed(), len(model.order))
		}
	}
	for _, id := range model.order {
		if got, hit := c.lookup(id); !hit || !bytes.Equal(got, model.m[id]) {
			t.Fatalf("at the end: get(%s) = %q, %v; the model says %q", id, got, hit, model.m[id])
		}
	}
	for i, h := range hits {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("hit %d was handed %q and now reads %q: a view into a recycled slot, not a copy", i, h.want, h.got)
		}
	}
}

var dedupModelCapacities = []int{0, 1, 8}

// TestDedupMatchesModel runs seeded random op streams at each capacity.
func TestDedupMatchesModel(t *testing.T) {
	for _, capacity := range dedupModelCapacities {
		for seed := int64(1); seed <= 40; seed++ {
			script := make([]byte, 2000)
			rand.New(rand.NewSource(seed)).Read(script)
			checkDedupAgainstModel(t, capacity, script)
		}
	}
}

// FuzzDedupCache hands the op stream to the fuzzer.
func FuzzDedupCache(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 4, 1, 7, 0, 4, 2})
	f.Add(bytes.Repeat([]byte{3, 5, 11, 9, 4, 5, 7, 7}, 40))
	seeded := make([]byte, 600)
	rand.New(rand.NewSource(1)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, capacity := range dedupModelCapacities {
			checkDedupAgainstModel(t, capacity, script)
		}
	})
}
