package powermgr

import (
	"testing"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

func benchRig() (*simclock.Engine, *Service) {
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry()
	return e, New(e, m, r, device.PixelXL, hooks.Nop{})
}

// BenchmarkAcquireRelease measures the wakelock transition — the dominant
// cost of every app beat, two recomputes per iteration. Steady state must be
// 0 allocs/op: the per-uid holder accounting lives in dense slices reused
// across recomputes, not per-call maps.
func BenchmarkAcquireRelease(b *testing.B) {
	_, svc := benchRig()
	// A background population so each recompute does real counting work.
	for uid := power.UID(1); uid <= 8; uid++ {
		svc.NewWakelock(uid, hooks.Wakelock, "bg").Acquire()
	}
	wl := svc.NewWakelock(9, hooks.Wakelock, "fg")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.Acquire()
		wl.Release()
	}
}

// BenchmarkRecomputeMixed covers the screen path too: partial and screen
// holders flip together, so both dense count slices cycle per iteration.
func BenchmarkRecomputeMixed(b *testing.B) {
	_, svc := benchRig()
	for uid := power.UID(1); uid <= 4; uid++ {
		svc.NewWakelock(uid, hooks.Wakelock, "bg").Acquire()
		svc.NewWakelock(uid, hooks.ScreenWakelock, "bg-screen").Acquire()
	}
	wl := svc.NewWakelock(5, hooks.Wakelock, "fg")
	sl := svc.NewWakelock(6, hooks.ScreenWakelock, "fg-screen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.Acquire()
		sl.Acquire()
		sl.Release()
		wl.Release()
	}
}

// TestRecomputeDoesNotAllocate pins the satellite requirement: the wakelock
// transition path (two recomputes per Acquire/Release pair) performs zero
// heap allocations once the dense accounting has warmed up.
func TestRecomputeDoesNotAllocate(t *testing.T) {
	_, svc := benchRig()
	for uid := power.UID(1); uid <= 8; uid++ {
		svc.NewWakelock(uid, hooks.Wakelock, "bg").Acquire()
		svc.NewWakelock(uid, hooks.ScreenWakelock, "bg-screen").Acquire()
	}
	wl := svc.NewWakelock(9, hooks.Wakelock, "fg")
	wl.Acquire() // warm the dense slices up to uid 9
	wl.Release()
	if avg := testing.AllocsPerRun(200, func() {
		wl.Acquire()
		wl.Release()
	}); avg != 0 {
		t.Fatalf("Acquire/Release allocates %v times per op, want 0", avg)
	}
}
