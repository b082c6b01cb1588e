package sim

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/device"
)

func TestNewDefaults(t *testing.T) {
	s := New(Options{})
	if s.Profile.Name != device.PixelXL.Name {
		t.Fatalf("default device = %q, want Pixel XL", s.Profile.Name)
	}
	if s.Policy != Vanilla || s.Leases != nil || s.Doze != nil {
		t.Fatal("default policy should be plain vanilla")
	}
	if s.Power == nil || s.Location == nil || s.Sensors == nil || s.Wifi == nil || s.Audio == nil || s.Apps == nil {
		t.Fatal("services missing")
	}
}

func TestPolicyWiring(t *testing.T) {
	if s := New(Options{Policy: LeaseOS}); s.Leases == nil {
		t.Fatal("LeaseOS policy should create a lease manager")
	}
	if s := New(Options{Policy: DozeAggressive}); s.Doze == nil {
		t.Fatal("Doze policy should create a Doze governor")
	}
	if s := New(Options{Policy: DefDroid}); s.DefDroidGov == nil {
		t.Fatal("DefDroid policy should create its governor")
	}
	if s := New(Options{Policy: Throttle}); s.ThrottleGov == nil {
		t.Fatal("Throttle policy should create its governor")
	}
}

func TestEndToEndLeaseDefersLeakedWakelock(t *testing.T) {
	s := New(Options{Policy: LeaseOS})
	p := s.Apps.NewProcess(10)
	wl := s.Power.NewWakelock(p.UID(), hooks.Wakelock, "leak")
	wl.Acquire()
	s.Run(30 * time.Minute)
	// Under the default policy (escalating τ) the wasted energy collapses.
	withLease := s.Meter.EnergyOfJ(10)

	v := New(Options{Policy: Vanilla})
	vp := v.Apps.NewProcess(10)
	vwl := v.Power.NewWakelock(vp.UID(), hooks.Wakelock, "leak")
	vwl.Acquire()
	v.Run(30 * time.Minute)
	withoutLease := v.Meter.EnergyOfJ(10)

	if reduction := 1 - withLease/withoutLease; reduction < 0.9 {
		t.Fatalf("reduction = %.3f, want > 0.9", reduction)
	}
}

func TestForegroundQueryUsedByDoze(t *testing.T) {
	s := New(Options{Policy: DozeAggressive})
	p := s.Apps.NewProcess(10)
	p.SetForeground(true)
	s.Run(time.Second)
	wl := s.Power.NewWakelock(10, hooks.Wakelock, "fg")
	wl.Acquire()
	if !s.Power.Awake() {
		t.Fatal("foreground wakelock should survive aggressive doze")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip failed for %v: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy should fail to parse")
	}
}

// TestParsePolicyDeterministic pins the fix for map-order resolution:
// ParsePolicy scans Policies() in comparison order (never the name map), so
// repeated parses always resolve identically, and Policies() must cover
// every named policy or the ordered scan could miss a name the map knows.
func TestParsePolicyDeterministic(t *testing.T) {
	ordered := Policies()
	inOrder := map[Policy]bool{}
	for _, p := range ordered {
		inOrder[p] = true
	}
	for p, name := range policyNames {
		if !inOrder[p] {
			t.Errorf("policy %v (%q) missing from Policies(): unreachable by ParsePolicy", p, name)
			continue
		}
		first, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		for i := 0; i < 100; i++ {
			if got, _ := ParsePolicy(name); got != first {
				t.Fatalf("ParsePolicy(%q) flapped: %v then %v", name, first, got)
			}
		}
	}
}

func TestRunAdvancesClock(t *testing.T) {
	s := New(Options{})
	s.Run(time.Minute)
	if s.Now() != time.Minute {
		t.Fatalf("Now = %v", s.Now())
	}
}
