package appfw

import (
	"testing"
	"time"

	"repro/internal/android/hooks"
)

// kernels is the package's allocation contract, stated once: each row is one
// steady-state operation of the app framework's hot path, and none may touch
// the heap. BenchmarkFramework/<name> loops the op for timing;
// TestKernelAllocs holds the zero in tier-1 over the very same closure, so
// the two cannot drift apart.
var kernels = []struct {
	name  string
	setup func() (op func())
}{
	{"RunWork", runWorkOp},
	{"NetworkRequest", networkRequestOp},
	{"TimerChurn", timerChurnOp},
	{"WorkPauseResume", workPauseResumeOp},
	{"GatedSubmit", gatedSubmitOp},
}

func TestKernelAllocs(t *testing.T) {
	for _, k := range kernels {
		if got := testing.AllocsPerRun(1000, k.setup()); got != 0 {
			t.Errorf("%s: %v allocs/op, pinned at 0", k.name, got)
		}
	}
}

func BenchmarkFramework(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			op := k.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// runWorkOp is one full RunWork lifecycle — slot acquisition, draw-handle
// start, engine completion, slot release — the innermost loop of every
// simulated app.
func runWorkOp() func() {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	return func() {
		p.RunWork(time.Millisecond, nil)
		r.engine.RunUntil(r.engine.Now() + 2*time.Millisecond)
	}
}

// networkRequestOp is one cellular transfer including the radio-tail
// bookkeeping (env defaults to Wi-Fi; cellular is the expensive path). The
// tail event is rebound, not reallocated, per request.
func networkRequestOp() func() {
	r := newRig(nil)
	r.world.SetNetwork(true, false) // cellular: exercises the radio tail
	p := r.fw.NewProcess(10)
	r.hold(10)
	onDone := func(error) {}
	return func() {
		p.NetworkRequest(time.Millisecond, onDone)
		r.engine.RunUntil(r.engine.Now() + 2*time.Millisecond)
	}
}

// timerChurnOp is the periodic-timer tick cycle that dominated the post-PR-2
// profile (appfw.(*timer).fire): each tick must reuse the timer's bound
// callback rather than allocate a fresh closure.
func timerChurnOp() func() {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.Every(time.Millisecond, func() {})
	return func() { r.engine.RunUntil(r.engine.Now() + time.Millisecond) }
}

// workPauseResumeOp is the suspend path of paper §4.6: a long-running item
// repeatedly paused by CPU sleep and resumed by wake, and a short one
// submitted while the CPU is down, which takes its draw slot only as the wake
// starts it and hands it back when it completes. Both sides are
// allocation-free: appfw pools its work items, the meter recycles the slot,
// and powermgr.recompute counts holders in dense reused slices (powermgr's
// TestRecomputeDoesNotAllocate).
func workPauseResumeOp() func() {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	wl := r.hold(10)
	p.RunWork(time.Hour, nil)
	return func() {
		wl.Release()                         // CPU sleeps, work pauses
		p.RunWork(500*time.Microsecond, nil) // queues behind it, slotless
		wl.Acquire()                         // CPU wakes, both run
		r.engine.RunUntil(r.engine.Now() + time.Millisecond)
	}
}

// gatedSubmitOp is the listener nobody unregistered, delivering to a sleeping
// CPU: the submission waits as a backlog node, the wake turns it into a work
// item and runs it out, and the CPU sleeps again. Node and item both come
// from their pools.
func gatedSubmitOp() func() {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "test")
	return func() {
		p.RunWork(500*time.Microsecond, nil) // CPU asleep: a backlog node
		wl.Acquire()                         // CPU wakes, the node starts
		r.engine.RunUntil(r.engine.Now() + time.Millisecond)
		wl.Release() // and sleeps again
	}
}
