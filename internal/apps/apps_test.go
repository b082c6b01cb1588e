package apps

import (
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
)

const appUID power.UID = 100

// runSpec runs one Table 5 app for d under the given policy and returns the
// sim and app.
func runSpec(t *testing.T, sp Spec, pol sim.Policy, d time.Duration) (*sim.Sim, App) {
	t.Helper()
	s := sim.New(sim.Options{Policy: pol})
	sp.Trigger(s.World)
	app := sp.New(s, appUID)
	app.Start()
	s.Run(d)
	return s, app
}

// TestTable5AppsMisbehaviorDetected drives every buggy app under LeaseOS
// and checks that the expected misbehaviour class is what the lease manager
// actually observes on the app's resource, and that it defers that lease.
func TestTable5AppsMisbehaviorDetected(t *testing.T) {
	for _, sp := range Table5Specs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			s := sim.New(sim.Options{Policy: sim.LeaseOS})
			var sawExpected, sawDeferral bool
			s.Leases.OnEvent = func(ev lease.Event) {
				if ev.Kind == sp.Resource {
					sawExpected = sawExpected || ev.Op == lease.EventTermCheck && ev.Term.Behavior == sp.Behavior
					sawDeferral = sawDeferral || ev.To == lease.Deferred
				}
			}
			sp.Trigger(s.World)
			sp.New(s, appUID).Start()
			s.Run(10 * time.Minute)
			if !sawExpected || !sawDeferral {
				t.Fatalf("%s: expected %v classified = %v, lease deferred = %v", sp.Name, sp.Behavior, sawExpected, sawDeferral)
			}
		})
	}
}

// TestTable5LeaseSavings checks the headline Table 5 result: LeaseOS
// substantially reduces each buggy app's power draw versus vanilla.
func TestTable5LeaseSavings(t *testing.T) {
	for _, sp := range Table5Specs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			const d = 30 * time.Minute
			v, _ := runSpec(t, sp, sim.Vanilla, d)
			l, _ := runSpec(t, sp, sim.LeaseOS, d)
			without := v.Meter.EnergyOfJ(appUID)
			with := l.Meter.EnergyOfJ(appUID)
			if without <= 0 {
				t.Fatalf("%s: no vanilla energy recorded", sp.Name)
			}
			reduction := 1 - with/without
			// The paper's per-app reductions range 44.8%–99.6%; require a
			// generous floor that still proves real mitigation.
			if reduction < 0.4 {
				t.Fatalf("%s: reduction = %.1f%% (with=%.1f J without=%.1f J)",
					sp.Name, reduction*100, with, without)
			}
		})
	}
}

// TestNormalAppsNeverDeferred is the §7.4 usability result: RunKeeper,
// Spotify and Haven run under LeaseOS without a single deferral.
func TestNormalAppsNeverDeferred(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *sim.Sim) App
	}{
		{"RunKeeper", func(s *sim.Sim) App {
			s.World.SetMotion(true, 2.5)
			return NewRunKeeper(s, appUID)
		}},
		{"Spotify", func(s *sim.Sim) App { return NewSpotify(s, appUID) }},
		{"Haven", func(s *sim.Sim) App { return NewHaven(s, appUID) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(sim.Options{Policy: sim.LeaseOS})
			app := c.setup(s)
			app.Start()
			s.Run(30 * time.Minute)
			if n := s.Leases.Deferrals; n != 0 {
				t.Fatalf("%s was deferred %d times", c.name, n)
			}
		})
	}
}

func TestRunKeeperKeepsTrackingUnderLeaseOS(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	s.World.SetMotion(true, 2.5)
	rk := NewRunKeeper(s, appUID)
	rk.Start()
	s.Run(10 * time.Minute)
	// Fixes every 2 s after a 5 s lock: ~297 points in 10 min.
	if rk.TrackPoints < 280 {
		t.Fatalf("TrackPoints = %d; tracking was disrupted", rk.TrackPoints)
	}
}

func TestRunKeeperDisruptedUnderThrottle(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Throttle})
	s.World.SetMotion(true, 2.5)
	rk := NewRunKeeper(s, appUID)
	rk.Start()
	s.Run(10 * time.Minute)
	if rk.TrackPoints > 60 {
		t.Fatalf("TrackPoints = %d; single-term throttle should disrupt tracking", rk.TrackPoints)
	}
}

func TestSpotifyPlaybackUnderLeaseOSAndThrottle(t *testing.T) {
	run := func(pol sim.Policy) int {
		s := sim.New(sim.Options{Policy: pol})
		sp := NewSpotify(s, appUID)
		sp.Start()
		s.Run(10 * time.Minute)
		return sp.SecondsPlayed
	}
	lease := run(sim.LeaseOS)
	throttle := run(sim.Throttle)
	if lease < 580 {
		t.Fatalf("LeaseOS playback = %d s of ~600; music stalled", lease)
	}
	if throttle > lease/2 {
		t.Fatalf("throttle playback = %d s; expected heavy disruption (lease=%d)", throttle, lease)
	}
}

func TestHavenKeepsMonitoring(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	h := NewHaven(s, appUID)
	h.Start()
	s.Run(10 * time.Minute)
	// accel every 500 ms + camera every 1 s ≈ 1800 events in 10 min.
	if h.EventsAnalyzed < 1700 {
		t.Fatalf("EventsAnalyzed = %d; monitoring disrupted", h.EventsAnalyzed)
	}
}

func TestSyncAppCompletesCyclesUnderLeaseOS(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	app := NewSyncApp(s, appUID, "Pandora", 2*time.Minute, time.Second, 2*time.Second)
	app.Start()
	s.Run(30 * time.Minute)
	if app.Syncs < 14 {
		t.Fatalf("Syncs = %d, want ~15 (2-minute cadence)", app.Syncs)
	}
}

func TestBetterWeatherFigure1Pattern(t *testing.T) {
	// Under vanilla and weak GPS, BetterWeather spends ~2/3 of each minute
	// asking for GPS and never succeeds (Figure 1).
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	s.World.SetGPS(env.GPSWeak)
	bw := NewBetterWeather(s, appUID)
	bw.Start()
	s.Run(30 * time.Minute)
	if bw.GotWeather != 0 {
		t.Fatalf("GotWeather = %d, want 0 under weak signal", bw.GotWeather)
	}
	// GPS energy should reflect a ~2/3 duty cycle.
	gpsJ := s.Meter.EnergyOfJ(appUID)
	fullJ := s.Profile.GPSActiveW * (30 * time.Minute).Seconds()
	duty := gpsJ / fullJ
	if duty < 0.5 || duty > 0.85 {
		t.Fatalf("GPS duty = %.2f, want ≈ 0.67", duty)
	}
}

func TestK9DisconnectedSpinsCPU(t *testing.T) {
	// Figure 4: with the network down, K-9's retry loop keeps the CPU busy.
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	s.World.SetNetwork(false, false)
	k9 := NewK9(s, appUID)
	k9.Start()
	s.Run(10 * time.Minute)
	cpu := s.Apps.CPUTimeOf(appUID)
	if cpu < 5*time.Minute {
		t.Fatalf("CPU time = %v; the exception loop should spin hard", cpu)
	}
	if s.Apps.ExceptionsOf(appUID) < 100 {
		t.Fatalf("exceptions = %d; retry loop should throw continuously", s.Apps.ExceptionsOf(appUID))
	}
}

func TestK9BadServerHoldsWithLowCPU(t *testing.T) {
	// Figure 2: connected but the server fails — long wakelock holds with
	// near-zero CPU usage (the radio, not the CPU, is busy).
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	s.World.SetServerHealthy(false)
	k9 := NewK9(s, appUID)
	k9.Start()
	s.Run(10 * time.Minute)
	cpu := s.Apps.CPUTimeOf(appUID)
	util := float64(cpu) / float64(10*time.Minute)
	if util > 0.1 {
		t.Fatalf("CPU utilisation = %.2f, want ultralow (Fig. 2 pattern)", util)
	}
	if s.Apps.ExceptionsOf(appUID) < 50 {
		t.Fatalf("exceptions = %d, want a steady failure stream", s.Apps.ExceptionsOf(appUID))
	}
}

func TestK9HealthyServerIsQuiet(t *testing.T) {
	// No trigger, no misbehaviour: one fetch then 15 minutes of sleep.
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	k9 := NewK9(s, appUID)
	k9.Start()
	s.Run(10 * time.Minute)
	if n := s.Apps.ExceptionsOf(appUID); n != 0 {
		t.Fatalf("exceptions = %d, want 0 with healthy server", n)
	}
	if n := s.Leases.Deferrals; n != 0 {
		t.Fatalf("healthy K-9 deferred %d times", n)
	}
}

func TestTapAndTurnCustomCounter(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	app := NewTapAndTurn(s, appUID)
	app.Start()
	app.RecordRotation(false)
	app.RecordRotation(true)
	app.RecordRotation(false)
	app.RecordRotation(false)
	if got := app.ClickUtility().Score(); got != 25 {
		t.Fatalf("ClickUtility = %v, want 25 (1 click / 4 icons)", got)
	}
	fresh := NewTapAndTurn(s, appUID+1)
	if got := fresh.ClickUtility().Score(); got != 50 {
		t.Fatalf("empty ClickUtility = %v, want neutral 50", got)
	}
}

func TestSpecLookup(t *testing.T) {
	if len(Table5Specs()) != 20 {
		t.Fatalf("Table 5 has %d rows, want 20", len(Table5Specs()))
	}
	sp, err := SpecByName("Torch")
	if err != nil || sp.Name != "Torch" {
		t.Fatalf("SpecByName failed: %+v %v", sp, err)
	}
	if _, err := SpecByName("Angry Birds"); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestRandomSlicesShape(t *testing.T) {
	sl := RandomSlices(1, 100, 10*time.Minute)
	if len(sl) != 200 {
		t.Fatalf("len = %d, want 200", len(sl))
	}
	for i, s := range sl {
		if s.Length <= 0 || s.Length > 10*time.Minute+time.Second {
			t.Fatalf("slice %d has bad length %v", i, s.Length)
		}
		if s.Misbehave != (i%2 == 0) {
			t.Fatal("slices should alternate misbehave/normal")
		}
	}
	// Deterministic per seed.
	again := RandomSlices(1, 100, 10*time.Minute)
	for i := range sl {
		if sl[i] != again[i] {
			t.Fatal("RandomSlices not deterministic")
		}
	}
}

func TestFleetStaggered(t *testing.T) {
	s := sim.New(sim.Options{})
	fleet := NewFleet(s, 200, 10)
	if len(fleet) != 10 {
		t.Fatalf("fleet size = %d", len(fleet))
	}
	for _, a := range fleet {
		a.Start()
	}
	s.Run(10 * time.Minute)
	total := 0
	for _, a := range fleet {
		total += a.Syncs
	}
	if total == 0 {
		t.Fatal("fleet did no work")
	}
}
