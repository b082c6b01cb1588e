package apps

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/env"
	"repro/internal/sim"
)

// TestMozStumblerRebindCycles verifies the interval-scanning pattern: the
// listener is periodically unregistered and immediately re-registered on
// the same kernel object, which is what makes it the hardest Table 5 case.
func TestMozStumblerRebindCycles(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	app := NewMozStumbler(s, appUID)
	app.Start()
	s.Run(10 * time.Minute)
	// Exactly one lease (one kernel object) despite the rebinds.
	if s.Leases.CreatedTotal() != 1 {
		t.Fatalf("leases created = %d, want 1 (rebind reuses the kernel object)", s.Leases.CreatedTotal())
	}
	// The lease cycles through deferrals (the scanner leaks) but the
	// rebinds keep it alive.
	if s.Leases.Deferrals == 0 {
		t.Fatal("MozStumbler never deferred")
	}
}

func TestGPSLeakVariantsDiffer(t *testing.T) {
	// The LHB leak apps share a shape but differ in how long their UI
	// lives; the longer the UI lives, the longer the lease stays
	// legitimate and the more energy is legitimately used under LeaseOS.
	energies := map[string]float64{}
	builders := map[string]func(s *sim.Sim) App{
		"OSMTracker":   func(s *sim.Sim) App { return NewOSMTracker(s, appUID) },
		"GPSLogger":    func(s *sim.Sim) App { return NewGPSLogger(s, appUID) },
		"BostonBusMap": func(s *sim.Sim) App { return NewBostonBusMap(s, appUID) },
	}
	for name, build := range builders {
		s := sim.New(sim.Options{Policy: sim.LeaseOS})
		app := build(s)
		app.Start()
		s.Run(30 * time.Minute)
		energies[name] = s.Meter.EnergyOfJ(appUID)
	}
	// BostonBusMap's UI dies first (30 s), OSMTracker's last (2 min).
	if !(energies["BostonBusMap"] < energies["OSMTracker"]) {
		t.Fatalf("expected BostonBusMap < OSMTracker: %v", energies)
	}
}

func TestSliceAppAlternates(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	slices := []Slice{
		{Misbehave: true, Length: time.Minute},
		{Misbehave: false, Length: time.Minute},
		{Misbehave: true, Length: time.Minute},
	}
	app := NewSliceApp(s, appUID, slices)
	app.Start()
	if !app.Misbehaving() {
		t.Fatal("first slice should be misbehaving")
	}
	s.Run(90 * time.Second)
	if app.Misbehaving() {
		t.Fatal("second slice should be normal")
	}
	s.Run(60 * time.Second)
	if !app.Misbehaving() {
		t.Fatal("third slice should be misbehaving")
	}
	// CPU accrues only during normal (busy) slices.
	cpu := s.Apps.CPUTimeOf(appUID)
	if cpu < 20*time.Second || cpu > 30*time.Second {
		t.Fatalf("CPU = %v, want ~24 s (0.4 s per busy second)", cpu)
	}
	// After the trace ends, the app idles un-busy.
	s.Run(5 * time.Minute)
	if app.Misbehaving() {
		t.Fatal("past the trace end, the app is not misbehaving")
	}
}

func TestInteractionAppFlows(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	s.World.SetUserPresent(true)
	s.Power.SetUserScreen(true)
	app := NewInteractionApp(s, appUID, hooks.Wakelock)
	app.Click(0)
	s.Run(10 * time.Second)
	if len(app.Latencies) != 1 {
		t.Fatalf("latencies = %d, want 1", len(app.Latencies))
	}
	if app.Latencies[0] <= 0 || app.Latencies[0] > time.Second {
		t.Fatalf("wakelock flow latency = %v", app.Latencies[0])
	}
	if s.Apps.InteractionsOf(appUID) != 1 || s.Apps.UIUpdatesOf(appUID) != 1 {
		t.Fatal("flow should record one interaction and one UI update")
	}
}

func TestForegroundAppGeneratesUI(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	s.World.SetUserPresent(true)
	s.Power.SetUserScreen(true)
	yt := NewYouTube(s, appUID)
	yt.Start()
	yt.Interact()
	s.Run(time.Minute)
	if s.Apps.UIUpdatesOf(appUID) < 50 {
		t.Fatalf("UI updates = %d, want ~60", s.Apps.UIUpdatesOf(appUID))
	}
	if s.Apps.InteractionsOf(appUID) != 1 {
		t.Fatal("Interact should register")
	}
	yt.Stop()
	before := s.Apps.UIUpdatesOf(appUID)
	s.Run(time.Minute)
	if s.Apps.UIUpdatesOf(appUID) > before {
		t.Fatal("stopped app kept rendering")
	}
}

func TestWhereAsksForeverUnderWeakSignal(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	s.World.SetGPS(env.GPSNone)
	app := NewWhere(s, appUID)
	app.Start()
	s.Run(10 * time.Minute)
	// Continuous asking: full GPS power for the whole run.
	wantJ := s.Profile.GPSActiveW * 600
	if got := s.Meter.EnergyOfJ(appUID); got < wantJ*0.99 {
		t.Fatalf("energy = %v, want ≈ %v (never gives up)", got, wantJ)
	}
}

func TestFacebookLeaksWakelockAndAudio(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	app := NewFacebook(s, appUID)
	app.Start()
	s.Run(10 * time.Minute)
	wantJ := (s.Profile.CPUIdleAwakeW + s.Profile.AudioW) * 600
	got := s.Meter.EnergyOfJ(appUID)
	if got < wantJ*0.99 || got > wantJ*1.01 {
		t.Fatalf("energy = %v, want ≈ %v (wakelock + audio session)", got, wantJ)
	}
}
