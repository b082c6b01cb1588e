package leased

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/android/hooks"
	"repro/internal/snapenc"
)

// lookup is get with the hash taken here.
func (c *dedupCache) lookup(id string) (dedupVerdict, bool) {
	return c.get([]byte(id), c.hashID([]byte(id)))
}

// store is put with the hash taken here.
func (c *dedupCache) store(id string, v dedupVerdict) { c.put([]byte(id), c.hashID([]byte(id)), v) }

// walk counts the log's entries from head and the bytes they take, failing
// unless the index finds each at its offset and they end exactly at the
// log's end.
func (c *dedupCache) walk(tb testing.TB) (entries, live int) {
	tb.Helper()
	off := c.head
	for ; off < len(c.log); off = c.next(off) {
		if id := c.idAt(off); c.find(id, c.hashID(id)) != off {
			tb.Fatalf("the index does not find the entry at log offset %d (%q)", off, id)
		}
		entries++
	}
	if off != len(c.log) {
		tb.Fatalf("the log's last entry ends at %d, past its %d bytes", off, len(c.log))
	}
	return entries, len(c.log) - c.head
}

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
// checks retention stays bounded: the log never past cap entries, exactly
// cap live entries, log and index in lockstep, the index no larger once the
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
		if n, _ := c.walk(t); n > cap || n != c.size() {
			t.Fatalf("after %d inserts the log holds %d entries (size %d), capped at %d", i+1, n, c.size(), cap)
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
// without adding an entry or disturbing eviction order, whether the new
// verdict packs narrower than the entry's or wider.
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
	wide := dedupVerdict{lease: 1 << 62, terms: -1 << 60, acquires: 1 << 61, uid: 1 << 31, kind: 5, state: 3, held: true}
	c.store("b", wide)
	if v, _ := c.lookup("b"); v != wide {
		t.Fatalf("b = %+v, want the wide update %+v", v, wide)
	}
	if v, _ := c.lookup("c"); v != verdictN(3) {
		t.Fatalf("c = %+v after b widened, want %+v", v, verdictN(3))
	}
	// Next insert evicts "a" (still oldest), not "b".
	c.store("d", verdictN(4))
	if _, ok := c.lookup("a"); ok {
		t.Fatal("a survived eviction; update must not refresh FIFO position")
	}
	if _, ok := c.lookup("b"); !ok {
		t.Fatal("b was wrongly evicted")
	}
	// And the next evicts "b", widened in place, before "c".
	c.store("e", verdictN(5))
	if _, ok := c.lookup("b"); ok {
		t.Fatal("b survived eviction; widening must not refresh FIFO position")
	}
	if _, ok := c.lookup("c"); !ok {
		t.Fatal("c was wrongly evicted")
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

// encode is the checkpoint payload the model's contents make, written field
// by field from the format's definition rather than through the cache.
func (m *dedupModel) encode() []byte {
	w := snapenc.NewWriter(nil)
	w.Uvarint(uint64(len(m.order)))
	for _, id := range m.order {
		v := m.m[id]
		w.String(id)
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
	return w.Payload()
}

// modelID is the request ID a script's argument byte names: one of 64, each
// 1 to maxRequestIDLen bytes long (its first byte alone tells them apart),
// so that a window of 40 evicts and entries differ in size.
func modelID(arg byte) string {
	k := int(arg % 64)
	id := make([]byte, 1+k*37%maxRequestIDLen)
	for i := range id {
		id[i] = byte('!' + (k+i)%90)
	}
	return string(id)
}

// modelVerdict is the verdict a put op stores: the empty one a mark gets,
// one whose fields take every varint byte, or one of small values.
func modelVerdict(op, arg byte) dedupVerdict {
	n := int(op)*256 + int(arg)
	switch op % 16 {
	case 3:
		return dedupVerdict{empty: true}
	case 11:
		return dedupVerdict{lease: math.MaxUint64 - uint64(n), terms: math.MinInt64 + int64(n), acquires: math.MaxInt64 - int64(n), uid: math.MaxUint32 - uint32(n), kind: op, state: arg, held: true}
	}
	return verdictN(n)
}

// checkDedupAgainstModel interprets script as an op stream — put, get, and
// encode → load into a fresh cache — run against the cache and the model
// side by side. IDs come from a small alphabet so that updates, hits and
// evictions all occur; verdicts include the empty one a mark gets and ones
// that widen an entry when they replace a narrow one. After every op: the
// cache's checkpoint encoding equal to the model's byte for byte, the log
// holding exactly its entries, index occupancy equal to them, and an index
// at most half full.
func checkDedupAgainstModel(t *testing.T, capacity int, script []byte) {
	t.Helper()
	c := newDedupCache(capacity)
	model := &dedupModel{cap: capacity, m: map[string]dedupVerdict{}}
	w := snapenc.NewWriter(nil)
	for pc := 0; pc+1 < len(script); pc += 2 {
		op, arg := script[pc], script[pc+1]
		id := modelID(arg)
		switch op % 8 {
		case 0, 1, 2, 3: // put
			v := modelVerdict(op, arg)
			c.store(id, v)
			model.put(id, v)
		case 4, 5, 6: // get
			got, hit := c.lookup(id)
			want, live := model.m[id]
			if hit != live || got != want {
				t.Fatalf("op %d: get(%q) = %+v, %v; the model says %+v, %v", pc/2, id, got, hit, want, live)
			}
		case 7: // checkpoint and restore
			entries := c.entries()
			c = newDedupCache(capacity)
			c.load(entries)
		}
		w.Reset()
		c.encodeState(w)
		if want := model.encode(); !bytes.Equal(w.Payload(), want) {
			t.Fatalf("op %d: the cache encodes to %x, the model to %x", pc/2, w.Payload(), want)
		}
		if n, _ := c.walk(t); n != c.size() || c.size() != len(model.order) || c.indexed() != c.size() {
			t.Fatalf("op %d: size %d with %d entries in the log and %d index cells occupied, the model holds %d", pc/2, c.size(), n, c.indexed(), len(model.order))
		}
		if c.size() > capacity || 2*c.size() > len(c.cells) {
			t.Fatalf("op %d: %d entries (window %d) in an index of %d cells", pc/2, c.size(), capacity, len(c.cells))
		}
	}
	for _, id := range model.order {
		if got, hit := c.lookup(id); !hit || got != model.m[id] {
			t.Fatalf("at the end: get(%q) = %+v, %v; the model says %+v", id, got, hit, model.m[id])
		}
	}
}

// dedupModelCapacities are the windows the model runs at. At 1, 5 and 8 the
// log evicts, and so compacts, every few ops; 20 and 40 also grow it while
// the window fills, and none but 8 is a power of two.
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

// TestDedupWindowHoldsNoResponseBytes: filling a default window keeps what
// an entry needs — its ID's bytes and its packed verdict — and no copy of
// the answer. An empty cache is filled twice over through the pipeline's own
// put with a real lease's verdict, and the live heap that adds is bounded
// per entry. The IDs are made beforehand, so what is counted of them is the
// copy the log owns. A full window's log is at most twice its live bytes
// (entries of 2 + 19 + 8 bytes here) and its index 16 bytes an entry, and
// the logs it grew through must be garbage: ≤ 74 B, and the bound leaves 10
// bytes of slack over that for the runtime's own allocations. Keeping each
// answer's ~170 rendered bytes breaks it alone, as the build before the
// verdicts did (~240 B an entry beyond the IDs); the ring of ID strings and
// 48-byte slots before the log kept ~88 B.
func TestDedupWindowHoldsNoResponseBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the heap this pins")
	}
	const maxPerEntry = 84
	s := NewServer(benchOptions(1))
	defer s.Close()
	sh := s.shards[0]
	window := sh.opts.DedupWindow
	var v dedupVerdict
	sh.do(func() { v = verdictOf(sh.acquire("window-client", hooks.GPSListener)) })
	ids := make([][]byte, 2*window)
	for i := range ids {
		ids[i] = fmt.Appendf(nil, "request-id-%08x", i)
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
		c.put(id, c.hashID(id), v)
	}
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	if c.size() != window {
		t.Fatalf("window holds %d entries, want it full at %d", c.size(), window)
	}
	_, live := c.walk(t)
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(window)
	t.Logf("filling a %d-entry window kept %.1f B an entry, its ID's %d bytes among them: %.1f live log bytes an entry, a %d B log and %d index cells (%d B); %.1f B an entry in all",
		window, perEntry, len(ids[0]), float64(live)/float64(window), cap(c.log), len(c.cells), 8*len(c.cells), float64(c.footprint())/float64(window))
	if perEntry > maxPerEntry {
		t.Errorf("filling a %d-entry window kept %.1f B an entry, pinned at ≤ %d: is an answer's rendering being kept?", window, perEntry, maxPerEntry)
	}
	goruntime.KeepAlive(ids)
}

// TestEmptyShardDedupCost: an empty shard at the default options reserves
// next to nothing for its dedup window before its first op: no log, and an
// index of two cells. A ring fixed at the window reserved 256 KiB here
// (4 096 48-byte slots and 8 192 eight-byte cells).
func TestEmptyShardDedupCost(t *testing.T) {
	const maxBytes = 1 << 10
	sh := freshShard(Options{})
	c := sh.dedup
	if c.window != 4096 {
		t.Fatalf("the default window is %d entries, want 4096", c.window)
	}
	t.Logf("an empty default shard's dedup window: log %d B + index %d B", cap(c.log), 8*cap(c.cells))
	if c.footprint() > maxBytes {
		t.Errorf("an empty default shard's dedup window is %d B (log %d, index %d), pinned at ≤ %d", c.footprint(), cap(c.log), 8*cap(c.cells), maxBytes)
	}
}

// TestDedupWindowFollowsTraffic: a default window's log and index grow with
// the IDs a shard has seen, not with the window. After k distinct IDs the
// log is at most twice the bytes of its live entries — while it fills and
// once it evicts, its dead prefix included — and the index at most 4k cells
// (it doubles before passing half full). Past the window, k = 10 000, the
// index is no larger than one sized for it at half load.
func TestDedupWindowFollowsTraffic(t *testing.T) {
	window := Options{}.withDefaults().DedupWindow
	for _, k := range []int{100, 2100, 10000} {
		c := newDedupCache(window)
		for i := 0; i < k; i++ {
			c.store(fmt.Sprintf("request-%05d", i), verdictN(i))
		}
		_, live := c.walk(t)
		t.Logf("after %d IDs: %d entries, %d live of a %d B log, %d cells (%d B): %.1f B an entry", k, c.size(), live, cap(c.log), cap(c.cells), 8*cap(c.cells), float64(c.footprint())/float64(c.size()))
		if c.size() != min(k, window) {
			t.Errorf("after %d IDs the window holds %d entries, want %d", k, c.size(), min(k, window))
		}
		if cap(c.log) > 2*live {
			t.Errorf("after %d IDs the log is %d B, want ≤ 2 × its %d live bytes", k, cap(c.log), live)
		}
		if cap(c.cells) > 4*min(k, window) {
			t.Errorf("after %d IDs the index has %d cells, want ≤ %d", k, cap(c.cells), 4*min(k, window))
		}
		if k > window && cap(c.cells) > 2*window {
			t.Errorf("a full %d-entry window has %d cells, want ≤ %d", window, cap(c.cells), 2*window)
		}
	}
}

// TestDedupStorageHoldsNoPointers: what the window keeps — the log's bytes,
// the index's cells — holds no pointer, so the collector never scans it,
// however many entries it keeps. A string per ID, as the ring of slots
// before the log kept, fails here.
func TestDedupStorageHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array, reflect.Slice: // a slice's header is the cache's own; its elements are the storage
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.UnsafePointer:
			t.Errorf("%s is a %s: the dedup window's storage holds a pointer", path, typ)
		}
	}
	walk("dedupCache", reflect.TypeFor[dedupCache]())
}
