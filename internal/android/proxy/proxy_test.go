package proxy

import (
	"testing"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// TestTableOrderAndLookup checks the two things the live slice is for: the
// walk is in creation order whatever has been destroyed in between, and a
// Controller call finds its object by id — in a registry other services mint
// tokens from too, so ids have gaps.
func TestTableOrderAndLookup(t *testing.T) {
	e := simclock.NewEngine()
	reg := binder.NewRegistry(e)
	sh := Shares{Kind: hooks.WifiLock}
	followed := 0
	tab := New(e, reg, hooks.Nop{}, "test", func(*Object[int]) { followed++ }, nil)

	var objs []*Object[int]
	for i := 0; i < 6; i++ {
		reg.NewToken(99, "elsewhere")
		o := tab.Create(power.UID(10+i%2), &sh, i)
		tab.SetHeld(o, true)
		objs = append(objs, o)
	}
	tab.Kill(objs[0])
	tab.Kill(objs[3])
	reg.KillOwner(11) // objs[1] and objs[5]; objs[3] is already gone

	var walk []int
	for _, o := range tab.Objects() {
		walk = append(walk, o.X)
	}
	if len(walk) != 2 || walk[0] != 2 || walk[1] != 4 {
		t.Fatalf("walk visits %v, want [2 4]", walk)
	}
	if sh.N() != 2 {
		t.Fatalf("%d votes left, want 2", sh.N())
	}

	tab.Suppress(objs[4].ID())
	if !objs[4].Suppressed || objs[2].Suppressed {
		t.Fatalf("Suppress(%d) reached the wrong object", objs[4].ID())
	}
	before := followed
	for _, dead := range []int{0, 1, 3, 5} {
		tab.Suppress(objs[dead].ID())
		if objs[dead].Suppressed || objs[dead].Held || !objs[dead].Destroyed() {
			t.Fatalf("object %d after destroy: %+v", dead, objs[dead].Hold)
		}
	}
	tab.Suppress(objs[4].ID() + 1) // an id the registry gave to someone else
	if followed != before {
		t.Fatal("a Controller call on an unknown id reached the service")
	}

	tab.Reset()
	if len(tab.Objects()) != 0 {
		t.Fatal("Reset left objects behind")
	}
}
