package lease

import (
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/powermgr"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

// fakeStats is a controllable AppStats source.
type fakeStats struct {
	cpu   map[power.UID]time.Duration
	exc   map[power.UID]int
	ui    map[power.UID]int
	inter map[power.UID]int
}

func newFakeStats() *fakeStats {
	return &fakeStats{
		cpu:   map[power.UID]time.Duration{},
		exc:   map[power.UID]int{},
		ui:    map[power.UID]int{},
		inter: map[power.UID]int{},
	}
}

func (f *fakeStats) CPUTimeOf(u power.UID) time.Duration { return f.cpu[u] }
func (f *fakeStats) ExceptionsOf(u power.UID) int        { return f.exc[u] }
func (f *fakeStats) UIUpdatesOf(u power.UID) int         { return f.ui[u] }
func (f *fakeStats) InteractionsOf(u power.UID) int      { return f.inter[u] }

type mgrRig struct {
	engine *simclock.Engine
	meter  *power.Meter
	reg    *binder.Registry
	pm     *powermgr.Service
	stats  *fakeStats
	mgr    *Manager
	events []Event // everything the manager reported
}

// ops returns the recorded events of one op.
func (r *mgrRig) ops(op string) []Event {
	var evs []Event
	for _, ev := range r.events {
		if ev.Op == op {
			evs = append(evs, ev)
		}
	}
	return evs
}

func newMgrRig(cfg Config) *mgrRig {
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry()
	st := newFakeStats()
	mgr := NewManager(e, st, cfg)
	pm := powermgr.New(e, m, r, device.PixelXL, mgr)
	rig := &mgrRig{engine: e, meter: m, reg: r, pm: pm, stats: st, mgr: mgr}
	mgr.OnEvent = func(ev Event) { rig.events = append(rig.events, ev) }
	return rig
}

func TestLeaseCreatedOnFirstAcquire(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "test")
	if r.mgr.LeaseCount() != 0 {
		t.Fatal("lease should not exist before first access")
	}
	wl.Acquire()
	if r.mgr.LeaseCount() != 1 || r.mgr.ActiveLeaseCount() != 1 {
		t.Fatalf("leases = %d active = %d, want 1/1", r.mgr.LeaseCount(), r.mgr.ActiveLeaseCount())
	}
}

func TestIdleWakelockDeferredAfterOneTerm(t *testing.T) {
	// The Torch pattern: acquire and do nothing. The first 5 s term must
	// classify LHB and the wakelock must be suppressed for τ.
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "torch")
	wl.Acquire()
	r.engine.RunUntil(6 * time.Second)
	l := r.mgr.Leases()[0]
	if l.State() != Deferred {
		t.Fatalf("state = %v, want DEFERRED after first LHB term", l.State())
	}
	if r.pm.Awake() {
		t.Fatal("CPU should sleep during the deferral")
	}
	if !wl.IsHeld() {
		t.Fatal("app descriptor must still appear held")
	}
	// After τ (25 s), the resource is restored.
	r.engine.RunUntil(31 * time.Second)
	if l.State() != Active {
		t.Fatalf("state = %v, want ACTIVE after τ", l.State())
	}
	if !r.pm.Awake() {
		t.Fatal("wakelock should be restored after τ")
	}
}

func TestNormalTermsRenewAndGrow(t *testing.T) {
	// An app with healthy CPU usage keeps its lease and the term grows per
	// the §5.2 adaptive policy.
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "busy")
	wl.Acquire()
	// Feed CPU time continuously: 50% utilisation.
	stopFeed := r.engine.Ticker(time.Second, func() {
		r.stats.cpu[10] += 500 * time.Millisecond
	})
	defer stopFeed()
	r.engine.RunUntil(70 * time.Second) // > 12 normal 5s-terms
	l := r.mgr.Leases()[0]
	if l.State() != Active {
		t.Fatalf("state = %v, want ACTIVE", l.State())
	}
	if l.term != time.Minute {
		t.Fatalf("term = %v, want 1m after 12 normal terms", l.term)
	}
	for _, ev := range r.ops(EventTermCheck) {
		if ev.Term.Behavior.Misbehaving() {
			t.Fatalf("healthy app classified %v", ev.Term.Behavior)
		}
	}
}

func TestMisbehaviorRevertsAdaptiveTerm(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "flaky")
	wl.Acquire()
	stopFeed := r.engine.Ticker(time.Second, func() {
		r.stats.cpu[10] += 500 * time.Millisecond
	})
	r.engine.RunUntil(70 * time.Second)
	stopFeed() // CPU goes quiet → LHB once a fully-quiet term completes
	l := r.mgr.Leases()[0]
	if l.term != time.Minute {
		t.Fatalf("precondition: term = %v, want 1m", l.term)
	}
	// The 60–120 s term still contains the 60–70 s CPU tail (util ≈ 8%),
	// so the first fully-idle term is 120–180 s.
	r.engine.RunUntil(185 * time.Second)
	if l.term != r.mgr.Config().Term {
		t.Fatalf("term = %v, want reverted to %v", l.term, r.mgr.Config().Term)
	}
	if l.State() != Deferred {
		t.Fatalf("state = %v, want DEFERRED", l.State())
	}
}

func TestReleaseThenTermEndGoesInactive(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "brief")
	wl.Acquire()
	r.stats.cpu[10] += 900 * time.Millisecond
	r.engine.RunUntil(time.Second)
	wl.Release()
	r.engine.RunUntil(6 * time.Second)
	l := r.mgr.Leases()[0]
	if l.State() != Inactive {
		t.Fatalf("state = %v, want INACTIVE", l.State())
	}
	// Re-acquire renews the lease back to Active (paper Fig. 5).
	wl.Acquire()
	if l.State() != Active {
		t.Fatalf("state = %v, want ACTIVE after re-acquire renewal", l.State())
	}
}

func TestDeferralEscalatesForRepeatOffender(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "leak")
	wl.Acquire()
	// Steady LHB: cycles are term(5s) + τ, with τ = 25, 50, 100, 200, 400…
	r.engine.RunUntil(6 * time.Second)
	l := r.mgr.Leases()[0]
	if l.State() != Deferred {
		t.Fatal("expected first deferral")
	}
	// First deferral ends at 30 s; second term ends 35 s; second τ = 50 s.
	r.engine.RunUntil(36 * time.Second)
	if l.State() != Deferred {
		t.Fatalf("state = %v, want second DEFERRED", l.State())
	}
	r.engine.RunUntil(80 * time.Second) // 35+50=85: still deferred at 80
	if l.State() != Deferred {
		t.Fatal("second deferral should last 50 s (escalated)")
	}
	r.engine.RunUntil(86 * time.Second)
	if l.State() != Active {
		t.Fatalf("state = %v, want ACTIVE at 86 s", l.State())
	}
	// Third cycle: term 85–90, then τ = 100 s until 190 s.
	r.engine.RunUntil(91 * time.Second)
	if l.State() != Deferred {
		t.Fatal("want third deferral")
	}
	r.engine.RunUntil(185 * time.Second)
	if l.State() != Deferred {
		t.Fatal("third deferral should last 100 s")
	}
	r.engine.RunUntil(194 * time.Second) // restored at 190; next term ends 195
	if l.State() != Active {
		t.Fatalf("state = %v, want ACTIVE after third τ", l.State())
	}
}

func TestEscalationDisabled(t *testing.T) {
	c := DefaultConfig()
	c.NoTauEscalation = true
	r := newMgrRig(c)
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "leak")
	wl.Acquire()
	// Cycles are exactly term+τ = 30 s: active at 5-30, 35-60, …
	r.engine.RunUntil(36 * time.Second)
	l := r.mgr.Leases()[0]
	if l.State() != Deferred {
		t.Fatal("want second deferral")
	}
	r.engine.RunUntil(61 * time.Second)
	if l.State() != Active {
		t.Fatalf("state = %v; fixed τ should restore at 60 s", l.State())
	}
}

func TestObjectDestructionKillsLease(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	id := r.mgr.Leases()[0].ID()
	wl.Destroy()
	if r.mgr.LeaseCount() != 0 {
		t.Fatal("dead lease should be cleaned from the table")
	}
	if r.mgr.Check(id) {
		t.Fatal("Check on dead lease should be false")
	}
	if r.mgr.Renew(id) {
		t.Fatal("Renew on dead lease should fail")
	}
	r.engine.RunUntil(time.Minute) // no stray term checks may fire
}

func TestProcessDeathCleansLeases(t *testing.T) {
	r := newMgrRig(Config{})
	r.pm.NewWakelock(10, hooks.Wakelock, "a").Acquire()
	r.pm.NewWakelock(10, hooks.Wakelock, "b").Acquire()
	if r.mgr.LeaseCount() != 2 {
		t.Fatal("want 2 leases")
	}
	r.reg.KillOwner(10)
	if r.mgr.LeaseCount() != 0 {
		t.Fatalf("leases after death = %d, want 0", r.mgr.LeaseCount())
	}
}

func TestTable3APIs(t *testing.T) {
	r := newMgrRig(Config{})
	if !r.mgr.RegisterProxy(hooks.Wakelock, r.pm) {
		t.Fatal("RegisterProxy failed")
	}
	if r.mgr.RegisterProxy(hooks.Wakelock, nil) {
		t.Fatal("nil proxy should be rejected")
	}
	if !r.mgr.UnregisterProxy(hooks.Wakelock) {
		t.Fatal("UnregisterProxy failed")
	}
	if r.mgr.UnregisterProxy(hooks.Wakelock) {
		t.Fatal("double unregister should fail")
	}

	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	id := r.mgr.Leases()[0].ID()
	if !r.mgr.Check(id) {
		t.Fatal("fresh lease should check active")
	}
	if r.mgr.Check(99999) {
		t.Fatal("unknown lease should check false")
	}
	if !r.mgr.Renew(id) {
		t.Fatal("renewing an active lease restarts its term and succeeds")
	}
	if !r.mgr.Remove(id) {
		t.Fatal("Remove failed")
	}
	if r.mgr.Remove(id) {
		t.Fatal("double Remove should fail")
	}
}

func TestSetUtilityAffectsClassification(t *testing.T) {
	r := newMgrRig(Config{})
	// Healthy-looking CPU usage, but the app's own counter reports zero
	// utility → LUB.
	r.mgr.SetUtility(10, hooks.Wakelock, UtilityFunc(func() float64 { return 0 }))
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	stop := r.engine.Ticker(time.Second, func() { r.stats.cpu[10] += 400 * time.Millisecond })
	defer stop()
	r.engine.RunUntil(6 * time.Second)
	l := r.mgr.Leases()[0]
	if l.State() != Deferred {
		t.Fatalf("state = %v, want DEFERRED via custom utility", l.State())
	}
	if got := r.mgr.Explanation(l).Last.Behavior; got != LUB {
		t.Fatalf("behavior = %v, want LUB", got)
	}
	// Clearing the counter restores generic-only scoring.
	r.mgr.SetUtility(10, hooks.Wakelock, nil)
}

func TestCheckDuringDeferralIsFalse(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	r.engine.RunUntil(6 * time.Second)
	l := r.mgr.Leases()[0]
	if l.State() != Deferred {
		t.Fatal("precondition: deferred")
	}
	if r.mgr.Check(l.ID()) {
		t.Fatal("Check during deferral should be false")
	}
	if r.mgr.Renew(l.ID()) {
		t.Fatal("explicit renew during deferral must be refused")
	}
}

func TestReleaseDuringDeferralEndsInactive(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	r.engine.RunUntil(6 * time.Second) // deferred
	wl.Release()
	r.engine.RunUntil(40 * time.Second) // τ expires at ~30 s
	l := r.mgr.Leases()[0]
	if l.State() != Inactive {
		t.Fatalf("state = %v, want INACTIVE (released during τ)", l.State())
	}
	if r.pm.Awake() {
		t.Fatal("resource must not be restored after an in-τ release")
	}
}

// TestFigure5Transitions validates that every transition the sink hears is
// an edge of the paper's Figure 5 state machine.
func TestFigure5Transitions(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	r.engine.RunUntil(40 * time.Second) // LHB loop: defer + restore
	wl.Release()
	r.engine.RunUntil(80 * time.Second) // inactive
	wl.Acquire()                        // renew
	r.stats.cpu[10] += 4 * time.Second
	r.engine.RunUntil(90 * time.Second)
	wl.Destroy() // dead

	allowed := map[[2]State]bool{
		{Active, Deferred}:   true, // end of term, misbehaving
		{Active, Inactive}:   true, // end of term, resource not held
		{Active, Active}:     true, // renewal
		{Deferred, Active}:   true, // end of delay, restored
		{Deferred, Inactive}: true, // released during delay
		{Inactive, Active}:   true, // re-acquire + renewal
		{Active, Dead}:       true,
		{Inactive, Dead}:     true,
		{Deferred, Dead}:     true,
	}
	txns := r.ops(EventTransition)
	if len(txns) == 0 {
		t.Fatal("no transitions reported")
	}
	for _, tr := range txns {
		if !allowed[[2]State{tr.From, tr.To}] {
			t.Fatalf("illegal transition %v → %v (%s)", tr.From, tr.To, tr.Reason)
		}
	}
}

func TestLeaseAccessors(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	l := r.mgr.Leases()[0]
	if l.UID() != 10 || l.Kind() != hooks.Wakelock || l.Terms() != 0 {
		t.Fatalf("accessors wrong: uid=%v kind=%v terms=%d", l.UID(), l.Kind(), l.Terms())
	}
	r.engine.RunUntil(6 * time.Second)
	if l.Terms() != 1 {
		t.Fatalf("Terms = %d, want 1", l.Terms())
	}
	if r.mgr.LeaseByID(l.ID()) != l {
		t.Fatal("LeaseByID mismatch")
	}
	if r.mgr.CreatedTotal() != 1 {
		t.Fatal("CreatedTotal wrong")
	}
}

// TestEnergySavingTorch quantifies the headline effect on the Torch-like
// pattern: with leases, a leaked wakelock's energy shrinks by >90% over a
// 30-minute run (Table 5's LeaseOS column).
func TestEnergySavingTorch(t *testing.T) {
	run := func(withLease bool) float64 {
		e := simclock.NewEngine()
		m := power.NewMeter(e)
		reg := binder.NewRegistry()
		var gov hooks.Governor = hooks.Nop{}
		if withLease {
			gov = NewManager(e, newFakeStats(), Config{})
		}
		pm := powermgr.New(e, m, reg, device.PixelXL, gov)
		wl := pm.NewWakelock(10, hooks.Wakelock, "torch")
		wl.Acquire()
		e.RunUntil(30 * time.Minute)
		return m.EnergyOfJ(10)
	}
	without := run(false)
	with := run(true)
	reduction := 1 - with/without
	if reduction < 0.9 {
		t.Fatalf("reduction = %.2f, want > 0.9 (with=%v J without=%v J)", reduction, with, without)
	}
}
