package lease

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
)

func TestEUBObservedButNeverPenalized(t *testing.T) {
	r := newMgrRig(Config{})
	// A gaming-style workload: full CPU under a held wakelock with heavy
	// UI updates and interactions — Excessive-Use, the paper's grey area.
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "game")
	wl.Acquire()
	stop := r.engine.Ticker(time.Second, func() {
		r.stats.cpu[10] += 900 * time.Millisecond
		r.stats.ui[10] += 5
		r.stats.inter[10]++
	})
	defer stop()
	r.engine.RunUntil(10 * time.Minute)

	l := r.mgr.Leases()[0]
	if l.State() != Active {
		t.Fatalf("state = %v; EUB must never be deferred (paper §4 non-goal)", l.State())
	}
	sawEUB := false
	for _, ev := range r.ops(EventTermCheck) {
		if ev.Term.Behavior == EUB {
			sawEUB = true
		}
		if ev.Term.Behavior.Misbehaving() {
			t.Fatalf("heavy useful use classified %v", ev.Term.Behavior)
		}
	}
	if !sawEUB {
		t.Fatal("heavy useful use never classified EUB")
	}
	if got := r.mgr.EUBTimeOf(10); got < 5*time.Minute {
		t.Fatalf("EUBTimeOf = %v, want most of the run", got)
	}
	if got := r.mgr.EUBTimeOf(999); got != 0 {
		t.Fatalf("unknown uid EUB time = %v", got)
	}
}

func TestEUBCountsTowardNormalStreak(t *testing.T) {
	// EUB must feed the adaptive-term optimisation like Normal does: a
	// consistently heavy-but-useful app earns long terms.
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "game")
	wl.Acquire()
	stop := r.engine.Ticker(time.Second, func() {
		r.stats.cpu[10] += 900 * time.Millisecond
		r.stats.ui[10] += 5
	})
	defer stop()
	r.engine.RunUntil(2 * time.Minute)
	l := r.mgr.Leases()[0]
	if l.term != time.Minute {
		t.Fatalf("term = %v, want 1m after a streak of EUB terms", l.term)
	}
}
