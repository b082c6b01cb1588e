package appfw

import (
	"math"
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/powermgr"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/power"
	"repro/internal/simclock"
)

type rig struct {
	engine *simclock.Engine
	meter  *power.Meter
	reg    *binder.Registry
	world  *env.Environment
	pm     *powermgr.Service
	fw     *Framework
}

func newRig(gov hooks.Governor) *rig {
	if gov == nil {
		gov = hooks.Nop{}
	}
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry()
	w := env.New()
	pm := powermgr.New(e, m, r, device.PixelXL, gov)
	fw := New(e, m, device.PixelXL, w, pm, r, gov)
	return &rig{engine: e, meter: m, reg: r, world: w, pm: pm, fw: fw}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// hold acquires a wakelock so work can run.
func (r *rig) hold(uid power.UID) *powermgr.Wakelock {
	wl := r.pm.NewWakelock(uid, hooks.Wakelock, "test")
	wl.Acquire()
	return wl
}

func TestWorkRunsWhileAwake(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	done := false
	p.RunWork(5*time.Second, func() { done = true })
	r.engine.RunUntil(4 * time.Second)
	if done {
		t.Fatal("work finished early")
	}
	r.engine.RunUntil(6 * time.Second)
	if !done {
		t.Fatal("work did not finish")
	}
	if got := r.fw.CPUTimeOf(10); got != 5*time.Second {
		t.Fatalf("CPUTimeOf = %v, want 5s", got)
	}
}

func TestWorkDrawsActiveCPUPower(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.RunWork(10*time.Second, nil)
	r.engine.RunUntil(time.Second)
	want := device.PixelXL.CPUActiveW + device.PixelXL.CPUIdleAwakeW
	if got := r.meter.InstantPowerOfW(10); !almost(got, want) {
		t.Fatalf("draw = %v, want %v", got, want)
	}
}

func TestWorkPausesWhenCPUSleeps(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	wl := r.hold(10)
	done := false
	p.RunWork(10*time.Second, func() { done = true })
	r.engine.RunUntil(4 * time.Second)
	wl.Release() // CPU sleeps: work pauses with 6 s remaining
	r.engine.RunUntil(60 * time.Second)
	if done {
		t.Fatal("work completed while CPU was asleep")
	}
	if got := r.fw.CPUTimeOf(10); got != 4*time.Second {
		t.Fatalf("paused CPU time = %v, want 4s", got)
	}
	wl.Acquire()
	r.engine.RunUntil(70 * time.Second)
	if !done {
		t.Fatal("work did not resume and finish")
	}
	if got := r.fw.CPUTimeOf(10); got != 10*time.Second {
		t.Fatalf("final CPU time = %v, want 10s", got)
	}
}

func TestWorkScalesWithDeviceSpeed(t *testing.T) {
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	w := env.New()
	pm := powermgr.New(e, m, reg, device.MotoG, hooks.Nop{})
	fw := New(e, m, device.MotoG, w, pm, reg, hooks.Nop{})
	p := fw.NewProcess(10)
	wl := pm.NewWakelock(10, hooks.Wakelock, "t")
	wl.Acquire()
	done := false
	p.RunWork(time.Second, func() { done = true }) // Moto G speed 0.35
	e.RunUntil(2 * time.Second)
	if done {
		t.Fatal("work should take ~2.86 s on the Moto G")
	}
	e.RunUntil(3 * time.Second)
	if !done {
		t.Fatal("work should be done by 3 s")
	}
}

func TestForegroundRunsWithoutWakelock(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	p.SetForeground(true)
	r.pm.SetUserScreen(true) // screen keeps CPU awake
	done := false
	p.RunWork(time.Second, func() { done = true })
	r.engine.RunUntil(2 * time.Second)
	if !done {
		t.Fatal("foreground work should run while screen is on")
	}
}

type denyGov struct{ hooks.Nop }

func (denyGov) AllowBackgroundWork(power.UID) bool { return false }

func TestBackgroundGatingByGovernor(t *testing.T) {
	r := newRig(denyGov{})
	p := r.fw.NewProcess(10)
	r.hold(10)
	done := false
	p.RunWork(time.Second, func() { done = true })
	r.engine.RunUntil(10 * time.Second)
	if done {
		t.Fatal("gated background work must not run")
	}
	p.SetForeground(true)
	r.engine.RunUntil(20 * time.Second)
	if !done {
		t.Fatal("foreground is exempt from gating")
	}
}

func TestNetworkRequestSuccess(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	var result error
	called := false
	p.NetworkRequest(time.Second, func(err error) { called, result = true, err })
	r.engine.RunUntil(2 * time.Second)
	if !called || result != nil {
		t.Fatalf("called=%v err=%v", called, result)
	}
}

func TestNetworkRequestDisconnected(t *testing.T) {
	r := newRig(nil)
	r.world.SetNetwork(false, false)
	p := r.fw.NewProcess(10)
	r.hold(10)
	var result error
	p.NetworkRequest(time.Second, func(err error) { result = err })
	r.engine.RunUntil(time.Second)
	if result != ErrNetworkDown {
		t.Fatalf("err = %v, want ErrNetworkDown", result)
	}
}

func TestNetworkRequestServerFailure(t *testing.T) {
	r := newRig(nil)
	r.world.SetServerHealthy(false)
	p := r.fw.NewProcess(10)
	r.hold(10)
	var result error
	p.NetworkRequest(time.Second, func(err error) { result = err })
	r.engine.RunUntil(2 * time.Second)
	if result != ErrServerFailure {
		t.Fatalf("err = %v, want ErrServerFailure", result)
	}
}

func TestNetworkRequestTimesOutAfterLongPause(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	wl := r.hold(10)
	var result error
	called := false
	p.NetworkRequest(10*time.Second, func(err error) { called, result = true, err })
	r.engine.RunUntil(2 * time.Second)
	wl.Release() // pause mid-request
	r.engine.RunUntil(5 * time.Minute)
	if called {
		t.Fatal("request completed while paused")
	}
	wl.Acquire() // resume after > NetTimeout
	r.engine.RunUntil(6 * time.Minute)
	if !called || result != ErrTimeout {
		t.Fatalf("called=%v err=%v, want ErrTimeout", called, result)
	}
}

func TestTimerFiresOnlyWhileRunnable(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	wl := r.hold(10)
	ticks := 0
	p.Every(time.Second, func() { ticks++ })
	r.engine.RunUntil(5500 * time.Millisecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	wl.Release()
	r.engine.RunUntil(time.Minute)
	if ticks != 5 {
		t.Fatalf("timer fired while CPU asleep: %d", ticks)
	}
	wl.Acquire() // pending tick flushes, then periodic resumes
	r.engine.RunUntil(62 * time.Second)
	if ticks < 6 {
		t.Fatalf("pending tick not flushed on wake: %d", ticks)
	}
}

func TestTimerStop(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	ticks := 0
	stop := p.Every(time.Second, func() { ticks++ })
	r.engine.RunUntil(3500 * time.Millisecond)
	stop()
	stop() // idempotent
	r.engine.RunUntil(10 * time.Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestAfter(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	fired := 0
	p.After(2*time.Second, func() { fired++ })
	r.engine.RunUntil(10 * time.Second)
	if fired != 1 {
		t.Fatalf("After fired %d times, want 1", fired)
	}
}

func TestAfterCancel(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	fired := 0
	cancel := p.After(2*time.Second, func() { fired++ })
	cancel()
	r.engine.RunUntil(10 * time.Second)
	if fired != 0 {
		t.Fatal("cancelled After fired")
	}
}

func TestSignals(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	p.ThrowException()
	p.ThrowException()
	p.NoteUIUpdate()
	p.NoteInteraction()
	if r.fw.ExceptionsOf(10) != 2 || r.fw.UIUpdatesOf(10) != 1 || r.fw.InteractionsOf(10) != 1 {
		t.Fatal("signal counters wrong")
	}
}

func TestKillCleansEverything(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	wl := r.hold(10)
	p.RunWork(time.Minute, nil)
	p.Every(time.Second, func() {})
	r.engine.RunUntil(time.Second)
	p.Kill()
	if !p.dead {
		t.Fatal("process should be dead")
	}
	if !wl.IsHeld() == false {
		// wakelock should have died with the process
		t.Fatal("wakelock survived process death")
	}
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw after kill = %v", got)
	}
	r.engine.RunUntil(time.Minute) // no panics from orphaned events
	if r.fw.ProcessOf(10) != nil {
		t.Fatal("process still registered")
	}
}

func TestDuplicateUIDPanics(t *testing.T) {
	r := newRig(nil)
	r.fw.NewProcess(10)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate uid should panic")
		}
	}()
	r.fw.NewProcess(10)
}

func TestCPUTimeIncludesRunningWork(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.RunWork(10*time.Second, nil)
	r.engine.RunUntil(3 * time.Second)
	if got := r.fw.CPUTimeOf(10); got != 3*time.Second {
		t.Fatalf("in-flight CPU time = %v, want 3s", got)
	}
}

func TestRadioTailOnCellular(t *testing.T) {
	r := newRig(nil)
	r.world.SetNetwork(true, false) // cellular
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.NetworkRequest(2*time.Second, nil)
	r.engine.RunUntil(3 * time.Second) // transfer done at 2 s, tail until 7 s
	tail := device.PixelXL.RadioTailW
	got := r.meter.InstantPowerOfW(10) - device.PixelXL.CPUIdleAwakeW
	if !almost(got, tail) {
		t.Fatalf("tail draw = %v, want %v", got, tail)
	}
	r.engine.RunUntil(8 * time.Second)
	got = r.meter.InstantPowerOfW(10) - device.PixelXL.CPUIdleAwakeW
	if !almost(got, 0) {
		t.Fatalf("tail should expire after %v: %v", device.PixelXL.RadioTailTime, got)
	}
}

func TestNoRadioTailOnWiFi(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.NetworkRequest(2*time.Second, nil)
	r.engine.RunUntil(3 * time.Second)
	got := r.meter.InstantPowerOfW(10) - device.PixelXL.CPUIdleAwakeW
	if !almost(got, 0) {
		t.Fatalf("Wi-Fi transfer should have no tail: %v", got)
	}
}

func TestRadioTailRefreshedByNextTransfer(t *testing.T) {
	r := newRig(nil)
	r.world.SetNetwork(true, false)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.NetworkRequest(time.Second, func(error) {
		p.fw.engine.Schedule(3*time.Second, func() {
			p.NetworkRequest(time.Second, nil) // second transfer inside the tail
		})
	})
	// First tail would end at 6 s; the second transfer (4–5 s) refreshes it
	// to end at 10 s.
	r.engine.RunUntil(8 * time.Second)
	tail := device.PixelXL.RadioTailW
	got := r.meter.InstantPowerOfW(10) - device.PixelXL.CPUIdleAwakeW
	if !almost(got, tail) {
		t.Fatalf("tail should be refreshed by the second transfer: %v", got)
	}
	r.engine.RunUntil(11 * time.Second)
	if got := r.meter.InstantPowerOfW(10) - device.PixelXL.CPUIdleAwakeW; !almost(got, 0) {
		t.Fatalf("refreshed tail should expire at 10 s: %v", got)
	}
}
