package appfw

import (
	"strings"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
)

func TestAlarmFiresWhileCPUAsleep(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10, "app")
	ticks := 0
	p.AlarmEvery(time.Minute, func() { ticks++ })
	r.engine.RunUntil(5*time.Minute + time.Second)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5 (alarms are wake-capable)", ticks)
	}
}

func TestAlarmGatedByGovernor(t *testing.T) {
	// Use the denyGov from appfw_test and verify alarms defer like Doze.
	r := newRig(denyGov{})
	p := r.fw.NewProcess(10, "app")
	ticks := 0
	p.AlarmEvery(time.Minute, func() { ticks++ })
	r.engine.RunUntil(10 * time.Minute)
	if ticks != 0 {
		t.Fatalf("gated alarm fired %d times", ticks)
	}
	// Moving to foreground exempts, and the pending tick flushes on the
	// next reevaluation.
	p.SetForeground(true)
	r.engine.RunUntil(11 * time.Minute)
	if ticks == 0 {
		t.Fatal("foreground alarm should fire")
	}
}

func TestAlarmAfterOnce(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10, "app")
	fired := 0
	p.AlarmAfter(30*time.Second, func() { fired++ })
	r.engine.RunUntil(5 * time.Minute)
	if fired != 1 {
		t.Fatalf("AlarmAfter fired %d times, want 1", fired)
	}
}

func TestAlarmAfterCancel(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10, "app")
	fired := 0
	cancel := p.AlarmAfter(30*time.Second, func() { fired++ })
	cancel()
	r.engine.RunUntil(5 * time.Minute)
	if fired != 0 {
		t.Fatal("cancelled alarm fired")
	}
}

func TestAlarmStopsOnKill(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10, "app")
	ticks := 0
	p.AlarmEvery(time.Minute, func() { ticks++ })
	p.Kill()
	r.engine.RunUntil(10 * time.Minute)
	if ticks != 0 {
		t.Fatal("alarm survived process death")
	}
}

func TestAlarmWakeAcquirePattern(t *testing.T) {
	// The canonical sync pattern: alarm fires while asleep, acquires a
	// wakelock, does work, releases.
	r := newRig(nil)
	p := r.fw.NewProcess(10, "sync")
	wl := r.hold(10)
	wl.Release() // start asleep
	var done int
	p.AlarmEvery(time.Minute, func() {
		wl.Acquire()
		p.RunWork(time.Second, func() {
			done++
			wl.Release()
		})
	})
	r.engine.RunUntil(10*time.Minute + 30*time.Second)
	if done != 10 {
		t.Fatalf("sync cycles = %d, want 10", done)
	}
	if got := r.fw.CPUTimeOf(10); got != 10*time.Second {
		t.Fatalf("CPU time = %v, want 10s", got)
	}
	if r.pm.Awake() {
		t.Fatal("CPU should be asleep between syncs")
	}
	_ = power.UID(0)
}

// switchGov gates background work on a flag tests flip.
type switchGov struct {
	hooks.Nop
	allow bool
}

func (g *switchGov) AllowBackgroundWork(power.UID) bool { return g.allow }

// pendingRig builds a background process whose timers and alarms, created by
// setup, have all come due behind a shut governor gate.
func pendingRig(t *testing.T, setup func(p *Process, gov *switchGov, fired *[]string)) (*rig, *switchGov, *[]string) {
	gov := &switchGov{}
	r := newRig(gov)
	p := r.fw.NewProcess(10, "app")
	r.hold(10)
	var fired []string
	setup(p, gov, &fired)
	r.engine.RunUntil(1500 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("gated callbacks fired: %v", fired)
	}
	return r, gov, &fired
}

func note(fired *[]string, name string) func() {
	return func() { *fired = append(*fired, name) }
}

// TestReevaluateFlushesTimersBeforeAlarms pins the order one reevaluation
// delivers pending ticks in: every plain timer, then every alarm, each kind
// in creation order.
func TestReevaluateFlushesTimersBeforeAlarms(t *testing.T) {
	r, gov, fired := pendingRig(t, func(p *Process, _ *switchGov, fired *[]string) {
		p.AlarmEvery(time.Second, note(fired, "a1"))
		p.Every(time.Second, note(fired, "t1"))
		p.AlarmEvery(time.Second, note(fired, "a2"))
		p.Every(time.Second, note(fired, "t2"))
	})
	gov.allow = true
	r.fw.Reevaluate()
	if got, want := strings.Join(*fired, " "), "t1 t2 a1 a2"; got != want {
		t.Fatalf("flush order %q, want %q", got, want)
	}
}

// TestReevaluateGates pins who asks which gate: plain timers are flushed on
// one canRun decision per walk, so a callback that shuts the gate does not
// hold back the ticks behind it, whereas each alarm asks for itself.
func TestReevaluateGates(t *testing.T) {
	r, gov, fired := pendingRig(t, func(p *Process, gov *switchGov, fired *[]string) {
		p.Every(time.Second, func() {
			gov.allow = false
			*fired = append(*fired, "t1")
		})
		p.Every(time.Second, note(fired, "t2"))
		p.AlarmEvery(time.Second, note(fired, "a1"))
	})
	gov.allow = true
	r.fw.Reevaluate()
	if got, want := strings.Join(*fired, " "), "t1 t2"; got != want {
		t.Fatalf("fired %q, want %q: t1 shut the gate, t2 rides the walk's decision, a1 asks and is refused", got, want)
	}
	gov.allow = true
	r.fw.Reevaluate()
	if got, want := strings.Join(*fired, " "), "t1 t2 a1"; got != want {
		t.Fatalf("fired %q after reopening, want %q", got, want)
	}
}
