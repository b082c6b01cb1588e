package lease

import (
	"strings"
	"testing"
	"time"

	"repro/internal/android/hooks"
)

func TestCreateIdempotentPerKernelObject(t *testing.T) {
	r := newMgrRig(Config{})
	obj := hooks.Object{ID: 7, UID: 10, Kind: hooks.Wakelock, Control: r.pm}
	id1 := r.mgr.Create(obj)
	id2 := r.mgr.Create(obj)
	if id1 != id2 {
		t.Fatalf("Create minted two leases (%d, %d) for one kernel object", id1, id2)
	}
	if r.mgr.LeaseCount() != 1 {
		t.Fatalf("lease count = %d, want 1", r.mgr.LeaseCount())
	}
}

func TestReacquireOnUnleasedObjectAdopts(t *testing.T) {
	// An object created before the manager attached (e.g. a governor swap)
	// gets adopted on first use.
	r := newMgrRig(Config{})
	obj := hooks.Object{ID: 42, UID: 10, Kind: hooks.SensorListener, Control: r.pm}
	r.mgr.ObjectReacquired(obj)
	if r.mgr.LeaseCount() != 1 {
		t.Fatalf("lease count = %d, want 1 (adopted)", r.mgr.LeaseCount())
	}
}

func TestReleaseAndDestroyOnUnknownObjectAreNoops(t *testing.T) {
	r := newMgrRig(Config{})
	obj := hooks.Object{ID: 999, UID: 10, Kind: hooks.Wakelock, Control: r.pm}
	r.mgr.ObjectReleased(obj)  // must not panic
	r.mgr.ObjectDestroyed(obj) // must not panic
	if r.mgr.LeaseCount() != 0 {
		t.Fatal("no lease should exist")
	}
}

func TestForceTermCheck(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	id := r.mgr.Leases()[0].ID()
	r.engine.RunUntil(2 * time.Second) // mid-term
	if !r.mgr.ForceTermCheck(id) {
		t.Fatal("ForceTermCheck on an active lease should succeed")
	}
	l := r.mgr.LeaseByID(id)
	if l.Terms() != 1 {
		t.Fatalf("terms = %d, want 1 after forced check", l.Terms())
	}
	// Idle hold over 2 s of a 2 s window → LHB → deferred.
	if l.State() != Deferred {
		t.Fatalf("state = %v", l.State())
	}
	if r.mgr.ForceTermCheck(id) {
		t.Fatal("ForceTermCheck on a deferred lease should fail")
	}
	if r.mgr.ForceTermCheck(424242) {
		t.Fatal("ForceTermCheck on an unknown lease should fail")
	}
}

func TestManagerAllowsBackgroundWorkAlways(t *testing.T) {
	r := newMgrRig(Config{})
	if !r.mgr.AllowBackgroundWork(10) {
		t.Fatal("LeaseOS gates resources, never work scheduling")
	}
}

func TestMultipleLeaseKindsPerApp(t *testing.T) {
	// An app holding a wakelock and a GPS listener has two independent
	// leases; one deferring must not touch the other.
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "wl")
	wl.Acquire()
	// Simulate a second, healthy lease via a synthetic controller object:
	// feed the uid plenty of CPU so only per-kind metrics differ.
	obj := hooks.Object{ID: 555, UID: 10, Kind: hooks.Wakelock, Control: r.pm}
	r.mgr.Create(obj)
	if r.mgr.LeaseCount() != 2 {
		t.Fatalf("leases = %d, want 2", r.mgr.LeaseCount())
	}
	// Lease ids are distinct and independently addressable.
	ls := r.mgr.Leases()
	if ls[0].ID() == ls[1].ID() {
		t.Fatal("duplicate lease ids")
	}
}

// TestSinkSeesEveryOperation: the sink hears each lease-management
// operation once, in order, stamped with the lease and the instant; the
// read-only Check reports nothing.
func TestSinkSeesEveryOperation(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()                       // create
	r.engine.RunUntil(6 * time.Second) // term check → deferred
	id := r.mgr.Leases()[0].ID()
	r.mgr.Check(id)
	r.engine.RunUntil(31 * time.Second) // restored
	wl.Release()
	r.engine.RunUntil(36 * time.Second) // term check → inactive
	wl.Acquire()                        // renew
	wl.Destroy()                        // remove → dead
	type step struct {
		op       string
		at       time.Duration
		from, to State
	}
	want := []step{
		{EventCreate, 0, 0, 0},
		{EventTermCheck, 5 * time.Second, 0, 0},
		{EventTransition, 5 * time.Second, Active, Deferred},
		{EventTransition, 30 * time.Second, Deferred, Active},
		{EventTermCheck, 35 * time.Second, 0, 0},
		{EventTransition, 35 * time.Second, Active, Inactive},
		{EventTransition, 36 * time.Second, Inactive, Active},
		{EventRenew, 36 * time.Second, 0, 0},
		{EventRemove, 36 * time.Second, 0, 0},
		{EventTransition, 36 * time.Second, Active, Dead},
	}
	if len(r.events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(r.events), len(want), r.events)
	}
	for i, ev := range r.events {
		w := want[i]
		if ev.Op != w.op || time.Duration(ev.At) != w.at || ev.From != w.from || ev.To != w.to ||
			ev.Lease != id || ev.UID != 10 || ev.Kind != hooks.Wakelock {
			t.Fatalf("event %d = %+v, want %+v on lease %d", i, ev, w, id)
		}
	}
	if d := r.events[2]; d.Tau != 25*time.Second || d.Reason != "term classified LHB" {
		t.Fatalf("deferral = %+v, want τ 25s and its LHB reason", d)
	}
	if tc := r.events[1].Term; tc.Index != 0 || tc.Behavior != LHB {
		t.Fatalf("first term check carries %+v, want term 0 classified LHB", tc)
	}
}

func TestConfigAccessorReflectsDefaults(t *testing.T) {
	r := newMgrRig(Config{})
	cfg := r.mgr.Config()
	if cfg.Term != 5*time.Second || cfg.Tau != 25*time.Second {
		t.Fatalf("effective config = %+v", cfg)
	}
	if cfg.TauMax != 400*time.Second {
		t.Fatalf("effective config = %+v", cfg)
	}
}

func TestMisbehaviorWindowDelaysDeferral(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MisbehaviorWindow = 3
	r := newMgrRig(cfg)
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "leak")
	wl.Acquire()
	l := r.mgr.Leases()[0]
	// Terms end at 5, 10, 15 s; only the third misbehaving term defers.
	r.engine.RunUntil(11 * time.Second)
	if l.State() != Active {
		t.Fatalf("state = %v after 2 misbehaving terms, want ACTIVE (window 3)", l.State())
	}
	r.engine.RunUntil(16 * time.Second)
	if l.State() != Deferred {
		t.Fatalf("state = %v after 3 misbehaving terms, want DEFERRED", l.State())
	}
}

func TestMisbehaviorWindowResetsOnNormalTerm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MisbehaviorWindow = 2
	r := newMgrRig(cfg)
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "bursty")
	wl.Acquire()
	l := r.mgr.Leases()[0]
	// Alternate: one idle term, one busy term — the window never fills.
	busy := false
	stop := r.engine.Ticker(time.Second, func() {
		if busy {
			r.stats.cpu[10] += 500 * time.Millisecond
		}
	})
	defer stop()
	flip := r.engine.Ticker(5*time.Second, func() { busy = !busy })
	defer flip()
	r.engine.RunUntil(2 * time.Minute)
	if l.State() == Deferred {
		t.Fatal("alternating behaviour should never fill a window of 2")
	}
	for _, tr := range r.ops(EventTransition) {
		if tr.To == Deferred {
			t.Fatalf("unexpected deferral: %+v", tr)
		}
	}
}

func TestMisbehaviorWindowWithReleaseGoesInactive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MisbehaviorWindow = 3
	r := newMgrRig(cfg)
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	r.engine.RunUntil(4 * time.Second)
	wl.Release()
	r.engine.RunUntil(6 * time.Second) // first term: misbehaving-ish but released
	l := r.mgr.Leases()[0]
	if l.State() != Inactive {
		t.Fatalf("state = %v, want INACTIVE (released, window not filled)", l.State())
	}
}

func TestExplainOutputs(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "leak")
	wl.Acquire()
	id := r.mgr.Leases()[0].ID()
	// Fresh lease: no terms yet.
	if got := r.mgr.Explain(id); !strings.Contains(got, "no completed terms yet") {
		t.Fatalf("fresh explain:\n%s", got)
	}
	r.engine.RunUntil(6 * time.Second) // LHB → deferred
	got := r.mgr.Explain(id)
	for _, want := range []string{"state DEFERRED", "long-holding", "FAIL", "verdict: LHB", "deferred (escalation"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain missing %q:\n%s", want, got)
		}
	}
	if got := r.mgr.Explain(999999); !strings.Contains(got, "unknown or dead") {
		t.Fatalf("unknown explain: %s", got)
	}
}

func TestExplainGPSIncludesFrequentAsk(t *testing.T) {
	r := newMgrRig(Config{})
	obj := hooks.Object{ID: 77, UID: 10, Kind: hooks.GPSListener, Control: r.pm}
	id := r.mgr.Create(obj)
	r.engine.RunUntil(6 * time.Second)
	if got := r.mgr.Explain(id); !strings.Contains(got, "frequent-ask") {
		t.Fatalf("GPS explain should include the frequent-ask rule:\n%s", got)
	}
}
