package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeterIntegratesSingleDraw(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "wl", 0.5) // 0.5 W
	e.RunUntil(10 * time.Second)
	if got := m.EnergyOfJ(1); !almost(got, 5.0) {
		t.Fatalf("EnergyOfJ = %v, want 5 J", got)
	}
	if got := m.EnergyJ(); !almost(got, 5.0) {
		t.Fatalf("EnergyJ = %v, want 5 J", got)
	}
}

func TestMeterDrawChangeMidway(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "wl", 1.0)
	e.RunUntil(2 * time.Second)
	m.Set(1, CPU, "wl", 0.25)
	e.RunUntil(6 * time.Second)
	// 2s @ 1W + 4s @ 0.25W = 3 J
	if got := m.EnergyOfJ(1); !almost(got, 3.0) {
		t.Fatalf("EnergyOfJ = %v, want 3 J", got)
	}
}

func TestMeterMultipleOwnersAndComponents(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "a", 0.1)
	m.Set(1, GPS, "b", 0.2)
	m.Set(2, Screen, "c", 0.5)
	e.RunUntil(10 * time.Second)
	if got := m.EnergyOfJ(1); !almost(got, 3.0) {
		t.Fatalf("uid1 energy = %v, want 3", got)
	}
	if got := m.EnergyOfJ(2); !almost(got, 5.0) {
		t.Fatalf("uid2 energy = %v, want 5", got)
	}
	if got := m.EnergyJ(); !almost(got, 8.0) {
		t.Fatalf("total = %v, want 8", got)
	}
}

func TestMeterSameComponentDistinctTags(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, GPS, "listener1", 0.1)
	m.Set(1, GPS, "listener2", 0.1)
	if got := m.InstantPowerOfW(1); !almost(got, 0.2) {
		t.Fatalf("two tagged draws should sum: %v", got)
	}
	m.Set(1, GPS, "listener1", 0.1) // idempotent re-set
	if got := m.InstantPowerOfW(1); !almost(got, 0.2) {
		t.Fatalf("idempotent re-set changed power: %v", got)
	}
}

func TestMeterClear(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "wl", 1.0)
	e.RunUntil(time.Second)
	m.Set(1, CPU, "wl", 0)
	e.RunUntil(10 * time.Second)
	if got := m.EnergyOfJ(1); !almost(got, 1.0) {
		t.Fatalf("energy after clear = %v, want 1", got)
	}
	if m.InstantPowerW() != 0 {
		t.Fatalf("power after clear = %v, want 0", m.InstantPowerW())
	}
}

func TestMeterClearOwner(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "a", 0.1)
	m.Set(1, GPS, "b", 0.2)
	m.Set(2, CPU, "c", 0.4)
	m.ClearOwner(1)
	if got := m.InstantPowerW(); !almost(got, 0.4) {
		t.Fatalf("power after ClearOwner = %v, want 0.4", got)
	}
	if got := m.InstantPowerOfW(1); got != 0 {
		t.Fatalf("uid1 power = %v, want 0", got)
	}
}

// TestClearOwnerAbsorbsDriftEverywhere pins the ClearOwner fix: removing an
// owner's draws absorbs float drift at zero for the component and total
// watt sums, not just the owner's. 0.1+0.7 is not exact in binary, so
// subtracting the two entries one by one leaves ~4e-17 W behind without the
// absorption — residue that InstantPowerW would report as nonzero draw and
// that repeated register/death cycles would compound.
func TestClearOwnerAbsorbsDriftEverywhere(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	for cycle := 0; cycle < 100; cycle++ {
		m.Set(3, GPS, "fix", 0.1)
		m.Set(7, GPS, "fix", 0.7)
		m.Set(7, CPU, "wl", 0.3)
		e.RunUntil(e.Now() + time.Millisecond)
		m.ClearOwner(3)
		m.ClearOwner(7)
	}
	if got := m.InstantPowerW(); got != 0 {
		t.Fatalf("total watts after register/death cycles = %g, want exactly 0", got)
	}
	for c := range m.comps {
		if got := m.comps[c].watts; got != 0 {
			t.Fatalf("%v watts after register/death cycles = %g, want exactly 0", Component(c), got)
		}
	}
	// An idle stretch after the churn must accrue no energy anywhere.
	before := m.EnergyJ()
	byBefore := m.EnergyByComponentJ()
	e.RunUntil(e.Now() + time.Hour)
	if got := m.EnergyJ(); got != before {
		t.Fatalf("idle device accrued %g J from residue", got-before)
	}
	byAfter := m.EnergyByComponentJ()
	for c, j := range byAfter {
		if j != byBefore[c] {
			t.Fatalf("idle device accrued %v energy from residue: %g → %g", c, byBefore[c], j)
		}
	}
}

// TestMeterDenseGrowth: owner state is a dense slice grown on demand;
// touching a high UID must not disturb existing accounting, and queries on
// never-seen UIDs stay zero without materialising state.
func TestMeterDenseGrowth(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "a", 0.5)
	e.RunUntil(10 * time.Second)
	m.Set(5000, GPS, "b", 0.25) // forces the owner table to grow mid-run
	e.RunUntil(20 * time.Second)
	if got := m.EnergyOfJ(1); !almost(got, 10.0) {
		t.Fatalf("uid1 energy across growth = %v, want 10", got)
	}
	if got := m.EnergyOfJ(5000); !almost(got, 2.5) {
		t.Fatalf("uid5000 energy = %v, want 2.5", got)
	}
	if got := m.EnergyOfJ(4999); got != 0 {
		t.Fatalf("untouched uid energy = %v, want 0", got)
	}
	if got := m.InstantPowerOfW(99999); got != 0 {
		t.Fatalf("never-seen uid power = %v, want 0", got)
	}
}

func TestMeterNegativeDrawPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative draw did not panic")
		}
	}()
	NewMeter(simclock.NewEngine()).Set(1, CPU, "x", -1)
}

// TestSecondsIsDurationSeconds holds the integrator's fast path to the bits
// of time.Duration.Seconds, on both sides of ±1 s and at random.
func TestSecondsIsDurationSeconds(t *testing.T) {
	check := func(dt time.Duration) bool {
		return math.Float64bits(seconds(dt)) == math.Float64bits(dt.Seconds())
	}
	for _, dt := range []time.Duration{0, 1, -1, time.Second - 1, time.Second, time.Second + 1,
		-time.Second + 1, -time.Second, 999_999_937, 100 * time.Millisecond, 3 * time.Hour, math.MaxInt64, math.MinInt64} {
		if !check(dt) {
			t.Errorf("seconds(%d) = %v, Seconds() = %v", dt, seconds(dt), dt.Seconds())
		}
	}
	if err := quick.Check(func(ns int64, sub int32) bool {
		return check(time.Duration(ns)) && check(time.Duration(sub)%time.Second)
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgPowerMW(t *testing.T) {
	if got := AvgPowerMW(9, 3*time.Second); !almost(got, 3000) {
		t.Fatalf("AvgPowerMW = %v, want 3000", got)
	}
	if AvgPowerMW(9, 0) != 0 {
		t.Fatal("zero duration should yield 0")
	}
}

func TestBatteryDrain(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "wl", 1.0)
	b := NewBattery(m, 10) // 10 J capacity
	e.RunUntil(4 * time.Second)
	if got := b.RemainingJ(); !almost(got, 6) {
		t.Fatalf("remaining = %v, want 6", got)
	}
	if b.Empty() {
		t.Fatal("battery reported empty early")
	}
	e.RunUntil(20 * time.Second)
	if !b.Empty() {
		t.Fatalf("battery should be empty, remaining %v", b.RemainingJ())
	}
}

func TestBatteryBaselineExcludesPriorEnergy(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "wl", 1.0)
	e.RunUntil(5 * time.Second)
	b := NewBattery(m, 10)
	e.RunUntil(8 * time.Second)
	if got := b.RemainingJ(); !almost(got, 7) {
		t.Fatalf("remaining = %v, want 7 (prior 5 J must not count)", got)
	}
}

// Property: total energy equals the sum of per-owner energies, and energy is
// monotone non-decreasing over time, for arbitrary draw schedules.
func TestPropertyEnergyConservation(t *testing.T) {
	type step struct {
		Owner uint8
		Comp  uint8
		Watts uint16 // milliwatt-scale
		DtMS  uint16
	}
	f := func(steps []step) bool {
		e := simclock.NewEngine()
		m := NewMeter(e)
		owners := map[UID]bool{}
		prevTotal := 0.0
		for _, s := range steps {
			owner := UID(s.Owner % 8)
			comp := Component(int(s.Comp) % int(numComponents))
			owners[owner] = true
			m.Set(owner, comp, "t", float64(s.Watts)/1000)
			e.RunUntil(e.Now() + time.Duration(s.DtMS)*time.Millisecond)
			total := m.EnergyJ()
			if total+1e-9 < prevTotal {
				return false // energy decreased
			}
			prevTotal = total
		}
		sum := 0.0
		for o := range owners {
			sum += m.EnergyOfJ(o)
		}
		return math.Abs(sum-m.EnergyJ()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyByComponent(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "w", 0.5)
	m.Set(2, GPS, "g", 0.1)
	e.RunUntil(10 * time.Second)
	by := m.EnergyByComponentJ()
	if !almost(by[CPU], 5.0) || !almost(by[GPS], 1.0) {
		t.Fatalf("component breakdown = %v", by)
	}
	if _, ok := by[Screen]; ok {
		t.Fatal("zero-energy components should be omitted")
	}
	// Component energies sum to total.
	sum := 0.0
	for _, j := range by {
		sum += j
	}
	if !almost(sum, m.EnergyJ()) {
		t.Fatalf("component sum %v != total %v", sum, m.EnergyJ())
	}
}

func TestClearOwnerUpdatesComponentWatts(t *testing.T) {
	e := simclock.NewEngine()
	m := NewMeter(e)
	m.Set(1, CPU, "w", 0.5)
	m.ClearOwner(1)
	e.RunUntil(10 * time.Second)
	if by := m.EnergyByComponentJ(); len(by) != 0 {
		t.Fatalf("cleared owner still accrues component energy: %v", by)
	}
}
