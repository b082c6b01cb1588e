package leased

import (
	"bytes"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"
	"unsafe"

	"repro/internal/android/hooks"
	"repro/internal/snapenc"
)

// lookup is get with the hash taken here.
func (c *dedupCache) lookup(id string) (dedupVerdict, bool) { return c.get(id, c.hash(id)) }

// store is put with the hash taken here.
func (c *dedupCache) store(id string, v dedupVerdict) { c.put(id, c.hash(id), v) }

// indexed counts the index's occupied cells.
func (c *dedupCache) indexed() int {
	n := 0
	for _, cell := range c.cells {
		if cell != 0 {
			n++
		}
	}
	return n
}

// verdictN is a verdict that tells n apart from every other n.
func verdictN(n int) dedupVerdict {
	return dedupVerdict{lease: uint64(n), terms: int64(n % 7), acquires: int64(n), uid: uint32(n % 5), kind: uint8(n % 6), state: uint8(n % 4), held: n%2 == 0}
}

// TestDedupBoundedRetention fills the cache many times over its cap and
// checks retention stays bounded: the ring never past cap slots, exactly cap
// live entries, ring and index in lockstep, the index no larger once the
// window is full, and only the newest cap ids resident. This is the
// regression test for the sliced-forward eviction (order = order[1:]) that
// kept the backing array — and through it every evicted id and response —
// reachable forever.
func TestDedupBoundedRetention(t *testing.T) {
	const cap = 8
	c := newDedupCache(cap)
	cells := 0 // the index's size once the window is full
	const total = 10 * cap
	for i := 0; i < total; i++ {
		c.store(fmt.Sprintf("req-%03d", i), verdictN(i))
		if len(c.ring) > cap {
			t.Fatalf("after %d inserts the ring has %d slots, capped at %d", i+1, len(c.ring), cap)
		}
		if c.size() == cap && cells == 0 {
			cells = len(c.cells)
		}
	}
	if c.size() != cap {
		t.Fatalf("size = %d after %d inserts, want %d", c.size(), total, cap)
	}
	if n := c.indexed(); n != cap {
		t.Fatalf("index holds %d entries, want %d (evicted ids not unindexed)", n, cap)
	}
	if len(c.cells) != cells {
		t.Fatalf("the index grew from %d cells to %d while the window was full", cells, len(c.cells))
	}
	// Only the newest cap survive; everything older is gone.
	for i := 0; i < total-cap; i++ {
		if _, ok := c.lookup(fmt.Sprintf("req-%03d", i)); ok {
			t.Fatalf("evicted id req-%03d still resident", i)
		}
	}
	for i := total - cap; i < total; i++ {
		v, ok := c.lookup(fmt.Sprintf("req-%03d", i))
		if !ok {
			t.Fatalf("live id req-%03d missing", i)
		}
		if v != verdictN(i) {
			t.Fatalf("req-%03d = %+v, want %+v", i, v, verdictN(i))
		}
	}
}

// entries lists the cache oldest-first, as a checkpoint would carry it.
func (c *dedupCache) entries() []dedupEntry {
	w := snapenc.NewWriter(nil)
	c.encodeState(w)
	return decodeDedupState(snapenc.NewReader(w.Payload()))
}

// load refills the cache from entries, as restore does once it has checked
// them.
func (c *dedupCache) load(entries []dedupEntry) {
	for i := range entries {
		c.store(entries[i].ID, entries[i].verdict())
	}
}

// TestDedupFIFOOrder pins the eviction order and the entries() listing:
// oldest-first, insertion order, across multiple wrap-arounds.
func TestDedupFIFOOrder(t *testing.T) {
	const cap = 4
	c := newDedupCache(cap)
	for i := 0; i < 11; i++ {
		c.store(fmt.Sprintf("id-%02d", i), verdictN(i))
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
		if got[j] != got2[j] {
			t.Fatalf("load/entries round-trip diverged at %d: %+v vs %+v", j, got[j], got2[j])
		}
	}
}

// TestDedupUpdateInPlace: re-putting a live id must replace its verdict
// without consuming a ring slot or disturbing eviction order.
func TestDedupUpdateInPlace(t *testing.T) {
	c := newDedupCache(3)
	c.store("a", verdictN(1))
	c.store("b", verdictN(2))
	c.store("a", verdictN(11))
	c.store("c", verdictN(3))
	if c.size() != 3 {
		t.Fatalf("size = %d, want 3", c.size())
	}
	if v, _ := c.lookup("a"); v != verdictN(11) {
		t.Fatalf("a = %+v, want the update", v)
	}
	// Next insert evicts "a" (still oldest), not "b".
	c.store("d", verdictN(4))
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
	c.store("x", verdictN(1))
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
	m     map[string]dedupVerdict
	order []string // oldest first
}

func (m *dedupModel) put(id string, v dedupVerdict) {
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
	m.m[id] = v
}

// checkDedupAgainstModel interprets script as an op stream — put, get, and
// encode → load into a fresh cache — run against the cache and the model
// side by side. IDs come from a small alphabet so that updates, hits and
// evictions all occur; verdicts include the empty one a mark gets. After
// every op: same size, index occupancy equal to it, a ring that holds the
// entries and is no longer than the window, and an index at most half full.
func checkDedupAgainstModel(t *testing.T, capacity int, script []byte) {
	t.Helper()
	c := newDedupCache(capacity)
	model := &dedupModel{cap: capacity, m: map[string]dedupVerdict{}}
	for pc := 0; pc+1 < len(script); pc += 2 {
		op, arg := script[pc], script[pc+1]
		id := fmt.Sprintf("id-%d", arg%24)
		switch op % 8 {
		case 0, 1, 2, 3: // put
			v := verdictN(int(op)*256 + int(arg))
			if op%16 == 3 {
				v = dedupVerdict{empty: true}
			}
			c.store(id, v)
			model.put(id, v)
		case 4, 5, 6: // get
			got, hit := c.lookup(id)
			want, live := model.m[id]
			if hit != live || got != want {
				t.Fatalf("op %d: get(%s) = %+v, %v; the model says %+v, %v", pc/2, id, got, hit, want, live)
			}
		case 7: // checkpoint and restore
			entries := c.entries()
			if len(entries) != len(model.order) {
				t.Fatalf("op %d: entries() lists %d, the model holds %d", pc/2, len(entries), len(model.order))
			}
			for i, e := range entries {
				if e.ID != model.order[i] || e.verdict() != model.m[e.ID] {
					t.Fatalf("op %d: entries()[%d] = %+v, the model's is %s %+v", pc/2, i, e, model.order[i], model.m[model.order[i]])
				}
			}
			c = newDedupCache(capacity)
			c.load(entries)
		}
		if c.size() != len(model.order) || c.indexed() != c.size() {
			t.Fatalf("op %d: size %d with %d index cells occupied, the model holds %d", pc/2, c.size(), c.indexed(), len(model.order))
		}
		if c.size() > len(c.ring) || len(c.ring) > capacity || 2*c.size() > len(c.cells) {
			t.Fatalf("op %d: %d entries in a ring of %d slots (window %d) and an index of %d cells", pc/2, c.size(), len(c.ring), capacity, len(c.cells))
		}
	}
	for _, id := range model.order {
		if got, hit := c.lookup(id); !hit || got != model.m[id] {
			t.Fatalf("at the end: get(%s) = %+v, %v; the model says %+v", id, got, hit, model.m[id])
		}
	}
}

// dedupModelCapacities are the windows the model runs at. 5, 20 and 40 are
// not powers of two, so the ring's last growth stops short at the window;
// 40 is more than the 24 IDs a script names, so its ring grows and never
// evicts.
var dedupModelCapacities = []int{0, 1, 8, 5, 20, 40}

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

// TestDedupWindowHoldsNoResponseBytes: filling a default window keeps
// nothing per entry but the request ID — no copy of the answer. An empty
// cache is filled twice over through the pipeline's own put with a real
// lease's verdict, and the live heap that adds, less the IDs (made and held
// beforehand), is bounded per entry: the full window's ring and index cost
// 48 + 16 bytes an entry (the slot size pinned here too), and the rings it
// grew through must be garbage. The bound leaves 8 bytes of slack over that
// for the runtime's own allocations. The parent build copied each answer's
// ~170 rendered bytes into a buffer of the slot's own: ~240 B an entry with
// its slot and the index.
func TestDedupWindowHoldsNoResponseBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the heap this pins")
	}
	const maxPerEntry = 72
	if size := unsafe.Sizeof(dedupSlot{}); size > 48 {
		t.Errorf("a dedup slot is %d bytes, pinned at ≤ 48: what grew it?", size)
	}
	s := NewServer(benchOptions(1))
	defer s.Close()
	sh := s.shards[0]
	window := sh.opts.DedupWindow
	var v dedupVerdict
	sh.do(func() { v = verdictOf(sh.acquire("window-client", hooks.GPSListener)) })
	ids := make([]string, 2*window)
	for i := range ids {
		ids[i] = fmt.Sprintf("request-id-%08x", i)
	}
	var c *dedupCache

	// Two collections each side: the first moves sync.Pool contents to the
	// victim caches, the second frees them.
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	c = newDedupCache(window)
	for i, id := range ids {
		v.acquires = int64(i)
		c.put(id, c.hash(id), v)
	}
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	if c.size() != window {
		t.Fatalf("window holds %d entries, want it full at %d", c.size(), window)
	}
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(window)
	t.Logf("filling a %d-entry window kept %.1f B an entry beyond its IDs (%d-byte slot, %d index cells)", window, perEntry, unsafe.Sizeof(dedupSlot{}), len(c.cells))
	if perEntry > maxPerEntry {
		t.Errorf("filling a %d-entry window kept %.1f B an entry beyond its IDs, pinned at ≤ %d: is an answer's rendering being kept?", window, perEntry, maxPerEntry)
	}
	goruntime.KeepAlive(ids)
}

// TestEmptyShardDedupCost: an empty shard at the default options reserves
// next to nothing for its dedup window before its first op: no ring, and an
// index of two cells. A ring fixed at the window reserved 256 KiB here
// (4 096 48-byte slots and 8 192 eight-byte cells).
func TestEmptyShardDedupCost(t *testing.T) {
	const maxBytes = 1 << 10
	sh := freshShard(Options{})
	c := sh.dedup
	if c.window != 4096 {
		t.Fatalf("the default window is %d entries, want 4096", c.window)
	}
	ring, index := dedupBytes(c)
	t.Logf("an empty default shard's dedup window: ring %d B + index %d B", ring, index)
	if ring+index > maxBytes {
		t.Errorf("an empty default shard's dedup window is %d B (ring %d, index %d), pinned at ≤ %d", ring+index, ring, index, maxBytes)
	}
}

// dedupBytes is what c's ring and index occupy.
func dedupBytes(c *dedupCache) (ring, index uintptr) {
	return uintptr(cap(c.ring)) * unsafe.Sizeof(dedupSlot{}), uintptr(cap(c.cells)) * unsafe.Sizeof(c.cells[0])
}

// TestDedupWindowFollowsTraffic: a default window's ring and index grow with
// the IDs a shard has seen, not with the window. After k distinct IDs the
// ring has at most max(16, 2k) slots while it doubles (below 1 024) and at
// most 1.25k once it grows by quarters, and the index at most 4k cells (it
// doubles before passing half full). Past the window, k = 10 000, the ring
// is the window and the index no larger than one sized for it at half load:
// a full window costs what a ring fixed at the window did.
func TestDedupWindowFollowsTraffic(t *testing.T) {
	window := Options{}.withDefaults().DedupWindow
	for _, k := range []int{100, 2100, 10000} {
		c := newDedupCache(window)
		for i := 0; i < k; i++ {
			c.store(fmt.Sprintf("request-%05d", i), verdictN(i))
		}
		maxSlots := max(16, 2*k)
		if k >= 1024 {
			maxSlots = k + k/4
		}
		maxSlots = min(maxSlots, window)
		ring, index := dedupBytes(c)
		t.Logf("after %d IDs: %d entries, %d slots (%d B), %d cells (%d B)", k, c.size(), cap(c.ring), ring, cap(c.cells), index)
		if c.size() != min(k, window) {
			t.Errorf("after %d IDs the window holds %d entries, want %d", k, c.size(), min(k, window))
		}
		if cap(c.ring) > maxSlots {
			t.Errorf("after %d IDs the ring has %d slots, want ≤ %d", k, cap(c.ring), maxSlots)
		}
		if cap(c.cells) > 4*min(k, window) {
			t.Errorf("after %d IDs the index has %d cells, want ≤ %d", k, cap(c.cells), 4*min(k, window))
		}
		if k > window && (cap(c.ring) != window || cap(c.cells) > 2*window) {
			t.Errorf("a full %d-entry window has %d slots and %d cells, want %d and ≤ %d", window, cap(c.ring), cap(c.cells), window, 2*window)
		}
	}
}
