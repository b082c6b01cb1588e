package exp

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/lease"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// DetectionLatency is a supplementary experiment this reproduction adds: it
// measures how quickly each mitigation mechanism reacts to the *onset* of a
// defect — the time from a leak appearing to the first revocation of the
// offending resource. The paper's "quick-drop observation" (§2.4) argues
// that checking at term ends suffices for early detection; this quantifies
// it against the baselines' threshold timers.
//
// Scenario: the device idles for 10 minutes, then an app acquires a
// wakelock and leaks it. Revocation is observed as the first one-second
// interval after onset in which the holding app draws no power.
func DetectionLatency() Result {
	r := Result{ID: "detection-latency", Title: "Time from defect onset to first revocation"}
	const onset = 10 * time.Minute

	measure := func(pol sim.Policy) (time.Duration, bool) {
		s := borrowSim(sim.Options{Policy: pol})
		defer returnSim(s)
		s.Apps.NewProcess(100)
		s.Engine.ScheduleAt(onset, func() {
			wl := s.Power.NewWakelock(100, hooks.Wakelock, "leak")
			wl.Acquire()
		})
		lastE := 0.0
		var found simclock.Time
		stop := s.Engine.Ticker(time.Second, func() {
			e := s.Meter.EnergyOfJ(100)
			if s.Engine.Now() > onset+time.Second && found == 0 && e-lastE < 1e-12 {
				found = s.Engine.Now()
			}
			lastE = e
		})
		s.Run(onset + 30*time.Minute)
		stop()
		if found == 0 {
			return 0, false
		}
		return found - onset, true
	}

	policies := []sim.Policy{sim.Vanilla, sim.LeaseOS, sim.DozeAggressive, sim.DefDroid, sim.Throttle}
	type outcome struct {
		d  time.Duration
		ok bool
	}
	outcomes := fanOut(policies, func(_ int, pol sim.Policy) outcome {
		d, ok := measure(pol)
		return outcome{d, ok}
	})
	for i, pol := range policies {
		if !outcomes[i].ok {
			r.addf("%-16s never revoked within 30 minutes of onset", pol)
			continue
		}
		r.addf("%-16s first revocation %6.0f s after onset", pol, outcomes[i].d.Seconds())
	}
	r.notef("supplementary experiment (not in the paper): LeaseOS reacts within one lease term (~5 s);")
	r.notef("threshold baselines wait out their conservative timers; vanilla never reacts")
	return r
}

// windowCost quantifies Config.MisbehaviorWindow: larger windows slow
// detection on steady defects but eliminate misjudgements of alternating
// behaviour.
func windowCost(window int) (steadyDetect time.Duration, burstyDeferrals int) {
	cfg := lease.DefaultConfig()
	cfg.MisbehaviorWindow = window

	// Steady defect: time to first deferral.
	s := borrowSim(sim.Options{Policy: sim.LeaseOS, Lease: cfg})
	defer returnSim(s)
	s.Leases.OnEvent = func(ev lease.Event) {
		if ev.To == lease.Deferred && steadyDetect == 0 {
			steadyDetect = time.Duration(ev.At)
		}
	}
	s.Apps.NewProcess(100)
	wl := s.Power.NewWakelock(100, hooks.Wakelock, "leak")
	wl.Acquire()
	s.Run(10 * time.Minute)

	// Bursty-but-legitimate app: deferral count (misjudgements).
	b := borrowSim(sim.Options{Policy: sim.LeaseOS, Lease: cfg})
	defer returnSim(b)
	p := b.Apps.NewProcess(100)
	wl2 := b.Power.NewWakelock(100, hooks.Wakelock, "bursty")
	wl2.Acquire()
	busy := false
	b.Engine.Ticker(5*time.Second, func() { busy = !busy })
	b.Engine.Ticker(time.Second, func() {
		if busy {
			p.RunWork(500*time.Millisecond, nil)
		}
	})
	b.Run(10 * time.Minute)
	return steadyDetect, b.Leases.Deferrals
}

// WindowSweep renders the misbehaviour-window trade-off.
func WindowSweep() Result {
	r := Result{ID: "window-sweep", Title: "Decision window: detection latency vs misjudgement"}
	r.addf("%-8s %-22s %-24s", "window", "steady-leak detection", "bursty-app deferrals")
	windows := []int{1, 2, 3, 4}
	type cost struct {
		detect time.Duration
		bursty int
	}
	costs := fanOut(windows, func(_ int, w int) cost {
		detect, bursty := windowCost(w)
		return cost{detect, bursty}
	})
	for i, w := range windows {
		r.addf("%-8d %20.0f s %24d", w, costs[i].detect.Seconds(), costs[i].bursty)
	}
	r.notef("supplementary sweep of lease.Config.MisbehaviorWindow (§4.3's last-few-terms rule)")
	return r
}
