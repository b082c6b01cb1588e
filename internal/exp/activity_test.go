package exp

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/sim"
)

// TestActivityReportBasics: the diary, fed a real manager's events, reports
// one short-lived lease and one long-running busy one.
func TestActivityReportBasics(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	diary := newActivityDiary()
	s.Leases.OnEvent = diary.note
	short := s.Power.NewWakelock(10, hooks.Wakelock, "short")
	short.Acquire()
	s.Run(2 * time.Second)
	short.Destroy()
	p := s.Apps.NewProcess(11)
	long := s.Power.NewWakelock(11, hooks.Wakelock, "long")
	long.Acquire()
	stop := p.Every(time.Second, func() { p.RunWork(500*time.Millisecond, nil) })
	defer stop()
	s.Run(60 * time.Second)

	rep := diary.report(s.Engine.Now())
	if rep.Created != 2 || rep.Created != s.Leases.CreatedTotal() {
		t.Fatalf("created = %d, want 2 (the manager counts %d)", rep.Created, s.Leases.CreatedTotal())
	}
	if rep.MaxActive < 55*time.Second {
		t.Fatalf("max active = %v, want ~60 s", rep.MaxActive)
	}
	if rep.MedianActive > rep.MaxActive {
		t.Fatal("median exceeds max")
	}
	if rep.MaxTerms < 10 {
		t.Fatalf("max terms = %d, want ≥ 10", rep.MaxTerms)
	}
	if rep.MeanTerms*2 != float64(s.Leases.TermChecks) {
		t.Fatalf("mean terms %.1f over 2 leases, but the manager ran %d term checks", rep.MeanTerms, s.Leases.TermChecks)
	}
	// An empty diary yields a zero report.
	if rep := newActivityDiary().report(s.Engine.Now()); rep != (activityReport{}) {
		t.Fatalf("empty report = %+v", rep)
	}
}
