package lease

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
)

// leakCycle drives one "fresh-object leak" cycle: create a new wakelock,
// hold it idle for holdFor, then destroy it. Returns the energy-relevant
// Active time the lease accumulated (via the rig's power meter would be
// equivalent; here we drive the manager directly).
func leakCycle(r *mgrRig, holdFor time.Duration) {
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "cycle")
	wl.Acquire()
	r.engine.RunUntil(r.engine.Now() + holdFor)
	wl.Destroy()
}

func TestReputationPreEscalatesRepeatOffenders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableReputation = true
	r := newMgrRig(cfg)

	// Three leak cycles build a bad record (each defers at least once).
	for i := 0; i < 3; i++ {
		leakCycle(r, 40*time.Second)
	}
	rep := r.mgr.ReputationOf(10)
	if rep.Deferrals < 3 {
		t.Fatalf("deferrals = %d, want ≥ 3 after three leak cycles", rep.Deferrals)
	}

	// A fresh lease for the same app must start pre-escalated: its first
	// deferral should be longer than the base τ (25 s).
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "again")
	wl.Acquire()
	start := r.engine.Now()
	r.engine.RunUntil(start + 6*time.Second) // first term ends, LHB
	l := r.mgr.leaseOf(hooksObjectFor(r, wl))
	if l == nil || l.State() != Deferred {
		t.Fatal("expected immediate deferral")
	}
	// With base τ it would restore at start+5s+25s; pre-escalated it must
	// still be deferred then.
	r.engine.RunUntil(start + 35*time.Second)
	if l.State() != Deferred {
		t.Fatal("repeat offender should get a pre-escalated (longer) deferral")
	}
}

func TestReputationTrustsCleanApps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableReputation = true
	r := newMgrRig(cfg)

	// Build a clean record: healthy CPU under a held lock for the trust
	// floor's 120 terms (12 of 5 s, then 108 of a minute: 109 virtual
	// minutes).
	stop := r.engine.Ticker(time.Second, func() { r.stats.cpu[10] += 500 * time.Millisecond })
	defer stop()
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "clean")
	wl.Acquire()
	r.engine.RunUntil(110 * time.Minute)
	wl.Destroy()
	if rep := r.mgr.ReputationOf(10); rep.NormalTerms < reputationTrustFloor || rep.Deferrals != 0 {
		t.Fatalf("reputation = %+v, want ≥%d clean terms", rep, reputationTrustFloor)
	}

	// A fresh lease starts at the one-minute term: no check fires at 5 s.
	wl2 := r.pm.NewWakelock(10, hooks.Wakelock, "clean2")
	wl2.Acquire()
	l := r.mgr.leaseOf(hooksObjectFor(r, wl2))
	if l.term != time.Minute {
		t.Fatalf("trusted app's initial term = %v, want %v", l.term, time.Minute)
	}
}

func TestReputationDisabledByDefault(t *testing.T) {
	r := newMgrRig(Config{})
	for i := 0; i < 4; i++ {
		leakCycle(r, 40*time.Second)
	}
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "again")
	wl.Acquire()
	l := r.mgr.leaseOf(hooksObjectFor(r, wl))
	if l.escalation != 0 || l.term != r.mgr.Config().Term {
		t.Fatal("reputation must not affect decisions unless enabled")
	}
	// History is still tracked for observability.
	if rep := r.mgr.ReputationOf(10); rep.Deferrals == 0 {
		t.Fatal("reputation history should be tracked even when disabled")
	}
}

func TestReputationOfUnknownUID(t *testing.T) {
	r := newMgrRig(Config{})
	if rep := r.mgr.ReputationOf(999); rep != (Reputation{}) {
		t.Fatalf("unknown uid reputation = %+v, want zero", rep)
	}
}

// hooksObjectFor rebuilds the hooks.Object key for a wakelock so tests can
// look its lease up.
func hooksObjectFor(r *mgrRig, wl interface{ ObjectID() uint64 }) hooks.Object {
	return hooks.Object{ID: wl.ObjectID(), Control: r.pm}
}

func TestReputationEnergyEffectOnFreshObjectLeaker(t *testing.T) {
	// The scenario reputation exists for: a leak that mints a fresh kernel
	// object per cycle resets per-lease escalation; with reputation the
	// penalty follows the app.
	energy := func(enable bool) float64 {
		cfg := DefaultConfig()
		cfg.EnableReputation = enable
		r := newMgrRig(cfg)
		for i := 0; i < 12; i++ {
			leakCycle(r, 2*time.Minute)
		}
		return r.meter.EnergyOfJ(10)
	}
	with := energy(true)
	without := energy(false)
	if with >= without {
		t.Fatalf("reputation should reduce the leak's energy: with=%v without=%v", with, without)
	}
	if 1-with/without < 0.2 {
		t.Fatalf("reputation saving too small: with=%v without=%v", with, without)
	}
}
