package leased

import (
	"fmt"
	"testing"

	"repro/internal/snapenc"
)

// TestDedupBoundedRetention fills the cache many times over its cap and
// checks retention stays bounded: exactly cap live entries, map and ring in
// lockstep, and only the newest cap ids resident. This is the regression
// test for the sliced-forward eviction (order = order[1:]) that kept the
// backing array — and through it every evicted id and response — reachable
// forever.
func TestDedupBoundedRetention(t *testing.T) {
	const cap = 8
	c := newDedupCache(cap)
	const total = 10 * cap
	for i := 0; i < total; i++ {
		c.put(fmt.Sprintf("req-%03d", i), []byte(fmt.Sprintf("resp-%03d", i)))
	}
	if c.size() != cap {
		t.Fatalf("size = %d after %d inserts, want %d", c.size(), total, cap)
	}
	if len(c.m) != cap {
		t.Fatalf("map holds %d entries, want %d (evicted values not deleted)", len(c.m), cap)
	}
	if len(c.ring) != cap {
		t.Fatalf("ring grew to %d slots, want fixed %d", len(c.ring), cap)
	}
	// Only the newest cap survive; everything older is gone.
	for i := 0; i < total-cap; i++ {
		if _, ok := c.get(fmt.Sprintf("req-%03d", i)); ok {
			t.Fatalf("evicted id req-%03d still resident", i)
		}
	}
	for i := total - cap; i < total; i++ {
		raw, ok := c.get(fmt.Sprintf("req-%03d", i))
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
	if raw, _ := c.get("a"); string(raw) != "1b" {
		t.Fatalf("a = %q, want updated 1b", raw)
	}
	// Next insert evicts "a" (still oldest), not "b".
	c.put("d", []byte("4"))
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived eviction; update must not refresh FIFO position")
	}
	if _, ok := c.get("b"); !ok {
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
	if _, ok := c.get("x"); ok {
		t.Fatal("zero-cap cache retained an entry")
	}
}
