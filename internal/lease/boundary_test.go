package lease

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
)

// Boundary tests pin the classifier's behaviour exactly at its thresholds,
// so future tuning cannot silently move a boundary.

func TestUtilizationThresholdBoundary(t *testing.T) {
	mk := func(util float64) termInputs {
		in := base(hooks.Wakelock)
		in.held = 10 * time.Second
		in.active = 10 * time.Second
		in.term = 10 * time.Second
		in.cpuTime = time.Duration(util * float64(in.held))
		return in
	}
	// utilizationThreshold 0.05: strictly below is LHB, at or above is not.
	if got := classify(mk(0.049), cfg()).Behavior; got != LHB {
		t.Fatalf("util 0.049 → %v, want LHB", got)
	}
	if got := classify(mk(0.05), cfg()).Behavior; got == LHB {
		t.Fatalf("util 0.05 → %v, want not LHB (boundary is exclusive)", got)
	}
}

func TestHoldFractionBoundary(t *testing.T) {
	mk := func(frac float64) termInputs {
		in := base(hooks.Wakelock)
		in.term = 10 * time.Second
		in.held = time.Duration(frac * float64(in.term))
		in.active = in.held
		in.cpuTime = 0
		return in
	}
	// lhbHoldFraction 0.5: at or above counts as a long hold.
	if got := classify(mk(0.5), cfg()).Behavior; got != LHB {
		t.Fatalf("held 50%% idle → %v, want LHB", got)
	}
	if got := classify(mk(0.49), cfg()).Behavior; got != Normal {
		t.Fatalf("held 49%% idle → %v, want Normal", got)
	}
}

func TestUtilityThresholdBoundary(t *testing.T) {
	mk := func(custom float64) termInputs {
		in := base(hooks.Wakelock)
		in.term = 10 * time.Second
		in.held = 10 * time.Second
		in.active = 10 * time.Second
		in.cpuTime = time.Second // 10% util: past the LHB gate
		in.custom = UtilityFunc(func() float64 { return custom })
		return in
	}
	// utilityThreshold 25: strictly below is LUB.
	if got := classify(mk(24.9), cfg()).Behavior; got != LUB {
		t.Fatalf("utility 24.9 → %v, want LUB", got)
	}
	if got := classify(mk(25), cfg()).Behavior; got == LUB {
		t.Fatalf("utility 25 → %v, want not LUB", got)
	}
}

func TestFABBoundaries(t *testing.T) {
	mk := func(askFrac, successRatio float64) termInputs {
		term := 10 * time.Second
		req := time.Duration(askFrac * float64(term))
		return termInputs{
			kind:              hooks.GPSListener,
			term:              term,
			held:              term,
			active:            term,
			used:              term,
			requestTime:       req,
			failedRequestTime: time.Duration((1 - successRatio) * float64(req)),
		}
	}
	// fabMinAskFraction 0.3, fabSuccessThreshold 0.2.
	if got := classify(mk(0.3, 0.2), cfg()).Behavior; got != FAB {
		t.Fatalf("ask 30%%, success 20%% → %v, want FAB (inclusive)", got)
	}
	if got := classify(mk(0.29, 0.0), cfg()).Behavior; got == FAB {
		t.Fatalf("ask 29%% → %v, want not FAB (too little asking)", got)
	}
	if got := classify(mk(0.9, 0.3), cfg()).Behavior; got == FAB {
		t.Fatalf("success 30%% → %v, want not FAB (succeeding enough)", got)
	}
}

func TestEUBFloorBoundary(t *testing.T) {
	mk := func(util float64) termInputs {
		in := base(hooks.Wakelock)
		in.term = 10 * time.Second
		in.held = 10 * time.Second
		in.active = 10 * time.Second
		in.cpuTime = time.Duration(util * float64(in.held))
		in.uiUpdates = 10 // high utility: not LUB
		return in
	}
	// eubUtilizationFloor 0.5: at or above with high utility is EUB.
	if got := classify(mk(0.5), cfg()).Behavior; got != EUB {
		t.Fatalf("util 0.5 useful → %v, want EUB", got)
	}
	if got := classify(mk(0.49), cfg()).Behavior; got != Normal {
		t.Fatalf("util 0.49 useful → %v, want Normal", got)
	}
}

func TestCustomUtilityFloorBoundary(t *testing.T) {
	// Generic exactly at the floor (20) honours the custom counter;
	// strictly below ignores it.
	mk := func(exceptions int) termInputs {
		in := base(hooks.Wakelock)
		in.term = time.Minute
		in.held = time.Minute
		in.active = time.Minute
		in.cpuTime = 30 * time.Second
		in.exceptions = exceptions // generic = 50 - 15*exc
		in.custom = UtilityFunc(func() float64 { return 99 })
		return in
	}
	// 2 exceptions/min → generic 20 = floor → custom honoured.
	if got := classify(mk(2), cfg()).UtilityScore; got != 99 {
		t.Fatalf("generic at floor: score = %v, want custom 99", got)
	}
	// 3 exceptions/min → generic 5 < floor → custom ignored.
	if got := classify(mk(3), cfg()).UtilityScore; got != 5 {
		t.Fatalf("generic below floor: score = %v, want generic 5", got)
	}
}
