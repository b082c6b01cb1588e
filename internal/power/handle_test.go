package power

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestHandleIntegratesLikeSet(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	h := m.Handle(1, CPU)
	h.Set(0.5)
	e.RunUntil(10 * time.Second)
	if got := m.EnergyOfJ(1); !almost(got, 5.0) {
		t.Fatalf("EnergyOfJ = %v, want 5 J", got)
	}
	h.Set(0.25)
	e.RunUntil(14 * time.Second)
	if got := m.EnergyOfJ(1); !almost(got, 6.0) {
		t.Fatalf("EnergyOfJ = %v, want 6 J", got)
	}
	if got := m.EnergyByComponentJ()[CPU]; !almost(got, 6.0) {
		t.Fatalf("CPU energy = %v, want 6 J", got)
	}
	h.Clear()
	if got := m.InstantPowerOfW(1); got != 0 {
		t.Fatalf("watts after Clear = %v, want exactly 0", got)
	}
	if !h.Valid() {
		t.Fatal("Clear must keep the slot live for reuse")
	}
}

func TestHandleDoesNotCollideWithStringTags(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	h := m.Handle(1, CPU)
	h.Set(0.5)
	// A string caller using the empty tag must get its own slot, not the
	// anonymous handle slot.
	m.Set(1, CPU, "", 0.25)
	if got := m.InstantPowerOfW(1); !almost(got, 0.75) {
		t.Fatalf("watts = %v, want 0.75 (two independent draws)", got)
	}
	m.Set(1, CPU, "", 0)
	if got := m.InstantPowerOfW(1); !almost(got, 0.5) {
		t.Fatalf("watts = %v, want 0.5 (handle draw untouched)", got)
	}
}

func TestHandleReleaseRecyclesSlot(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	h1 := m.Handle(1, CPU)
	h1.Set(0.5)
	h1.Release()
	if got := m.InstantPowerOfW(1); got != 0 {
		t.Fatalf("watts after Release = %v, want 0", got)
	}
	if h1.Valid() {
		t.Fatal("released handle must be invalid")
	}
	// The freed slot is reused; the stale handle must not alias the tenant.
	h2 := m.Handle(1, Radio)
	h2.Set(1.0)
	if h1.Valid() {
		t.Fatal("stale handle revalidated after slot reuse")
	}
	h1.Clear() // must not disturb h2's draw
	h1.Release()
	if got := m.InstantPowerOfW(1); !almost(got, 1.0) {
		t.Fatalf("stale handle disturbed the new tenant: %v W", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set(>0) on a stale handle should panic")
		}
	}()
	h1.Set(0.3)
}

func TestHandleStaleAfterClearOwner(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	h := m.Handle(7, GPS)
	h.Set(0.4)
	m.Set(7, CPU, "wl", 0.1)
	e.RunUntil(5 * time.Second)
	m.ClearOwner(7)
	if got := m.InstantPowerOfW(7); got != 0 {
		t.Fatalf("watts after ClearOwner = %v, want 0", got)
	}
	if h.Valid() {
		t.Fatal("handle must be stale after ClearOwner")
	}
	h.Clear()   // no-op
	h.Release() // no-op
	if got := m.EnergyOfJ(7); !almost(got, 2.5) {
		t.Fatalf("energy = %v, want 2.5 J", got)
	}
	// The owner keeps working after reclamation.
	h2 := m.Handle(7, GPS)
	h2.Set(0.4)
	e.RunUntil(10 * time.Second)
	if got := m.EnergyOfJ(7); !almost(got, 4.5) {
		t.Fatalf("energy = %v, want 4.5 J", got)
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var h DrawHandle
	if h.Valid() {
		t.Fatal("zero handle must be invalid")
	}
	h.Clear()
	h.Release()
	h.Set(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(>0) on the zero handle should panic")
		}
	}()
	h.Set(1)
}

func TestHandleSetZeroAllocs(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	h := m.Handle(1, CPU)
	h.Set(0.1) // materialise the slot and accumulators
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + time.Millisecond)
		h.Set(0.5)
		h.Set(0)
	})
	if allocs != 0 {
		t.Fatalf("DrawHandle.Set allocates: %v allocs/run", allocs)
	}
}
