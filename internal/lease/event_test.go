package lease

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// TestSinkSeesEveryTerm: over six hours of a healthy lease — past the 120
// terms a bounded history once held — a counting sink hears exactly Terms()
// term checks, in index order, each classified as the lease was, and the
// newest is the record Explain reads.
func TestSinkSeesEveryTerm(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "busy")
	wl.Acquire()
	stop := r.engine.Ticker(time.Second, func() { r.stats.cpu[10] += 300 * time.Millisecond })
	defer stop()
	r.engine.RunUntil(6 * time.Hour)

	l := r.mgr.Leases()[0]
	checks := r.ops(EventTermCheck)
	if len(checks) != l.Terms() || l.Terms() <= 120 {
		t.Fatalf("sink heard %d term checks of %d terms; want all of them, past 120", len(checks), l.Terms())
	}
	counts := map[Behavior]int{}
	for i, ev := range checks {
		if ev.Term.Index != i || ev.Lease != l.ID() {
			t.Fatalf("term check %d = lease %d term #%d", i, ev.Lease, ev.Term.Index)
		}
		counts[ev.Term.Behavior]++
	}
	if counts[Normal] != l.Terms() {
		t.Fatalf("behaviours %v over %d terms, want all Normal", counts, l.Terms())
	}
	if e := r.mgr.Explanation(l); !e.HasLast || e.Last != checks[len(checks)-1].Term {
		t.Fatalf("Explanation's last = %+v (%v), want the newest term check's record", e.Last, e.HasLast)
	}
}

// TestSinkAllocatesNothing: with a sink installed, a steady lease's term
// check, deferral and restore allocate nothing — the events are values.
func TestSinkAllocatesNothing(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{NoTauEscalation: true})
	heard := map[string]int{}
	mgr.OnEvent = func(ev Event) { heard[ev.Op]++ }
	mgr.Create(snapObj(newSnapCtrl(), 1, 10)) // an idle holder: LHB every term
	// Deferred at 5 s, then every 30 s a restore and, 5 s on, a term check
	// that defers again.
	eng.RunUntil(time.Minute)
	clear(heard)
	const runs = 10
	window := func() { eng.RunUntil(eng.Now() + 30*time.Second) }
	if allocs := testing.AllocsPerRun(runs, window); allocs != 0 {
		t.Errorf("a term check, deferral and restore allocate %v times", allocs)
	}
	if heard[EventTermCheck] != runs+1 || heard[EventTransition] != 2*(runs+1) {
		t.Fatalf("the sink heard %v over %d windows, want a term check and two transitions in each", heard, runs+1)
	}
}

// TestNewestRecordRestores: a lease past many terms restores to one that
// encodes the same bytes, explains the same last term and keeps evolving in
// step.
func TestNewestRecordRestores(t *testing.T) {
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 2, 20))
	feed := func(e *simclock.Engine, s *fakeStats) func() {
		return e.Ticker(time.Second, func() { s.cpu[20] += 500 * time.Millisecond })
	}
	defer feed(eng, stats)()
	eng.RunUntil(2 * time.Minute)
	if l := mgr.Leases()[0]; l.Terms() <= 3 {
		t.Fatalf("after 2 minutes the lease has %d terms", l.Terms())
	}

	eng2 := simclock.NewEngine()
	eng2.RunUntil(2 * time.Minute)
	stats2 := newFakeStats()
	stats2.cpu[20] = stats.cpu[20]
	mgr2 := NewManager(eng2, stats2, Config{})
	ctrl2 := newSnapCtrl()
	mgr2.RestoreState(mgr.CaptureState(), func(ls LeaseState) hooks.Object {
		return snapObj(ctrl2, ls.ObjID, power.UID(ls.UID))
	})
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("restored manager encodes to different bytes")
	}
	defer feed(eng2, stats2)()
	eng.RunUntil(4 * time.Minute)
	eng2.RunUntil(4 * time.Minute)
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("evolution diverged after restore")
	}
	if got, want := mgr2.Explain(1), mgr.Explain(1); got != want {
		t.Fatalf("restored Explain:\n%s\nwant:\n%s", got, want)
	}
}
