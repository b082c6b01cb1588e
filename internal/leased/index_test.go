package leased

import (
	"fmt"
	"hash/maphash"
	"math"
	"testing"
	"time"

	"repro/internal/power"
)

// collidingNames returns names whose hashes under seed collide: first n
// whose low eight bits are all ones, so at every size the fuzzer reaches
// they share the last cell as their home and their probe runs wrap to the
// first; then n pairs that agree in all 32 bits a cell keeps, so only the
// client table's name tells them apart (a birthday search, about 2¹⁷ hashes
// a pair).
func collidingNames(seed maphash.Seed, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if name := fmt.Sprintf("last-%d", i); maphash.String(seed, name)&0xff == 0xff {
			out = append(out, name)
		}
	}
	seen := make(map[uint32]string)
	for i := 0; len(out) < 3*n; i++ {
		name := fmt.Sprintf("collide-%d", i)
		h := uint32(maphash.String(seed, name))
		if other, ok := seen[h]; ok {
			out = append(out, other, name)
			delete(seen, h)
			continue
		}
		seen[h] = name
	}
	return out
}

// FuzzNameIndexMatchesMap runs the client index against a Go map: each input
// byte looks a name up (high bit clear) or looks it up and adds it if absent,
// as uidOf does (high bit set), the low seven bits choosing one of 128 names.
// The first names collide (collidingNames); the rest collide in their low
// bits as often as any names do at these sizes. Up to 128 names take the
// index from 2 cells through seven growths to 256. After every op each
// lookup must agree with the map; at the end every name must resolve, and
// the index must hold one cell per name, at most half full.
func FuzzNameIndexMatchesMap(f *testing.F) {
	seed := maphash.MakeSeed()
	names := collidingNames(seed, 4)
	for len(names) < 128 {
		names = append(names, fmt.Sprintf("client-%04d", len(names)))
	}
	all := make([]byte, 0, 256)
	for i := range names {
		all = append(all, 0x80|byte(i))
	}
	f.Add(all)
	f.Add(append(all[:len(all):len(all)], all...))
	f.Add([]byte{0x80, 0x81, 0x00, 0x01, 0x02, 0x03, 0x82, 0x83, 0x02, 0x03})
	f.Add([]byte{0x00, 0x7f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		x := newClientIndex()
		x.seed = seed
		recs := make([]clientRec, 1)
		model := make(map[string]power.UID)
		for i, op := range ops {
			name := names[op&0x7f]
			h := x.hash(name)
			got := x.lookup(recs, name, h)
			if want := model[name]; got != want {
				t.Fatalf("op %d: %q resolves to uid %d, the map says %d", i, name, got, want)
			}
			if op&0x80 != 0 && got == 0 {
				uid := power.UID(len(recs))
				recs = append(recs, clientRec{name: name})
				x.add(h, uid)
				model[name] = uid
			}
		}
		for name, want := range model {
			if got := x.lookup(recs, name, x.hash(name)); got != want {
				t.Fatalf("at the end %q resolves to uid %d, the map says %d", name, got, want)
			}
		}
		occupied := 0
		for _, cell := range x.cells {
			if cell != 0 {
				occupied++
				if uid := uint32(cell); uid == 0 || int(uid) >= len(recs) || cell>>32 != x.hash(recs[uid].name)&math.MaxUint32 {
					t.Fatalf("cell %#x is no name's", cell)
				}
			}
		}
		if occupied != len(model) || x.n != len(model) || 2*x.n > len(x.cells) {
			t.Fatalf("%d names in %d occupied cells of %d (count %d); want one cell each, at most half full", len(model), occupied, len(x.cells), x.n)
		}
	})
}

// TestRemoveAbsentPanics: removing a value the index does not hold panics
// at the end of its hash's probe run instead of searching the cells for
// ever, which under a shard clock wedges the shard.
func TestRemoveAbsentPanics(t *testing.T) {
	x := newCellIndex()
	x.insert(x.hash("present"), 1)
	h := x.hash("absent")
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		x.remove(h, 2)
	}()
	select {
	case r := <-done:
		if want := fmt.Sprintf("leased: value 2 is not indexed under hash %#x", h); r != want {
			t.Fatalf("remove of an absent value recovered %v, want the panic %q", r, want)
		}
	case <-time.After(time.Second):
		t.Fatal("remove of an absent value did not return within 1 s")
	}
}
