package policy

import (
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/location"
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
	loc    *location.Service
}

func newRig(gov hooks.Governor) *rig {
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry()
	w := env.New()
	pm := powermgr.New(e, m, r, device.PixelXL, gov)
	loc := location.New(e, m, r, device.PixelXL, w, gov)
	return &rig{engine: e, meter: m, reg: r, world: w, pm: pm, loc: loc}
}

// --- Doze ---

func TestDefaultDozeTooConservativeForShortRuns(t *testing.T) {
	// Paper Table 5 footnote: "the default Doze mode is too conservative to
	// be triggered for most cases" — a 30-minute experiment ends just as
	// the idle threshold is reached.
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, false, nil, nil)
	r := &rig{engine: e, world: w}
	_ = r
	e.RunUntil(29 * time.Minute)
	if d.Dozing() {
		t.Fatal("default doze engaged before the idle threshold")
	}
}

func TestForcedDozeSuppressesBackgroundWakelock(t *testing.T) {
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, true, nil, nil)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	e.RunUntil(time.Second) // forced doze engages at t=0
	if !d.Dozing() {
		t.Fatal("forced doze should engage immediately")
	}
	wl := pm.NewWakelock(10, hooks.Wakelock, "bg")
	wl.Acquire()
	if pm.Awake() {
		t.Fatal("dozing device should suppress a background wakelock")
	}
}

func TestDozeMaintenanceWindowRestores(t *testing.T) {
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, true, nil, nil)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	e.RunUntil(time.Second)
	wl := pm.NewWakelock(10, hooks.Wakelock, "bg")
	wl.Acquire()
	e.RunUntil(6*time.Minute + 30*time.Second) // inside maintenance window
	if !pm.Awake() {
		t.Fatal("maintenance window should restore the wakelock")
	}
	e.RunUntil(8 * time.Minute) // window over
	if pm.Awake() {
		t.Fatal("suppression should resume after the maintenance window")
	}
}

func TestDozeNeverDefersScreen(t *testing.T) {
	// Table 5: Doze reduces ConnectBot's screen defect by only 0.57%.
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, true, nil, nil)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	e.RunUntil(time.Second)
	wl := pm.NewWakelock(10, hooks.ScreenWakelock, "screen")
	wl.Acquire()
	if !pm.ScreenOn() {
		t.Fatal("Doze must not defer screen wakelocks")
	}
}

func TestUserActivityInterruptsDoze(t *testing.T) {
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, true, nil, nil)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	e.RunUntil(time.Second)
	wl := pm.NewWakelock(10, hooks.Wakelock, "bg")
	wl.Acquire()
	w.SetUserPresent(true)
	if d.Dozing() {
		t.Fatal("user presence must interrupt doze")
	}
	if !pm.Awake() {
		t.Fatal("suppression should lift when doze exits")
	}
	// Activity ends; forced doze re-engages after its short re-arm delay.
	w.SetUserPresent(false)
	e.RunUntil(3 * time.Minute)
	if !d.Dozing() {
		t.Fatal("forced doze should re-engage after activity stops")
	}
}

func TestDozeExemptsForegroundApp(t *testing.T) {
	e := simclock.NewEngine()
	w := env.New()
	fgUID := power.UID(42)
	d := NewDoze(e, w, true, func(u power.UID) bool { return u == fgUID }, nil)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	e.RunUntil(time.Second)
	wl := pm.NewWakelock(fgUID, hooks.Wakelock, "fg")
	wl.Acquire()
	if !pm.Awake() {
		t.Fatal("foreground app's wakelock must survive doze")
	}
	if !d.AllowBackgroundWork(fgUID) {
		t.Fatal("foreground app work must be allowed in doze")
	}
	if d.AllowBackgroundWork(10) {
		t.Fatal("background app work must be gated in doze")
	}
}

func TestDefaultDozeEngagesAfterLongIdle(t *testing.T) {
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, false, nil, nil)
	e.RunUntil(31 * time.Minute)
	if !d.Dozing() {
		t.Fatal("default doze should engage after the idle threshold")
	}
	if d.DozeEnterCount != 1 {
		t.Fatalf("DozeEnterCount = %d", d.DozeEnterCount)
	}
}

// --- DefDroid ---

func TestDefDroidRevokesLongHold(t *testing.T) {
	e := simclock.NewEngine()
	d := NewDefDroid(e)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	wl := pm.NewWakelock(10, hooks.Wakelock, "leak")
	wl.Acquire()
	e.RunUntil(5*time.Minute - time.Second)
	if !pm.Awake() {
		t.Fatal("revoked before the hold limit")
	}
	e.RunUntil(6 * time.Minute)
	if pm.Awake() {
		t.Fatal("hold limit exceeded; wakelock should be revoked")
	}
	if d.Revocations != 1 {
		t.Fatalf("Revocations = %d, want 1", d.Revocations)
	}
	// One-shot: it stays revoked without app action…
	e.RunUntil(30 * time.Minute)
	if pm.Awake() {
		t.Fatal("one-shot revocation should persist")
	}
	// …but a release+re-acquire resets it.
	wl.Release()
	wl.Acquire()
	if !pm.Awake() {
		t.Fatal("re-acquire should restore the wakelock")
	}
}

func TestDefDroidRateLimitsFrequentAcquires(t *testing.T) {
	e := simclock.NewEngine()
	d := NewDefDroid(e)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	wl := pm.NewWakelock(10, hooks.Wakelock, "loop")
	// The K-9 loop: acquire/release every 2 s, 12 times in 24 s.
	for i := 0; i < 12; i++ {
		wl.Acquire()
		e.RunUntil(e.Now() + time.Second)
		wl.Release()
		e.RunUntil(e.Now() + time.Second)
	}
	wl.Acquire()
	if pm.Awake() {
		t.Fatal("rate limit exceeded; acquire should be suppressed")
	}
}

// TestDefDroidLatestPenaltyLiftsSuppression: a new rate-limit penalty
// replaces the pending one, so only the latest deadline lifts the
// suppression. A wakelock rate-limited at 12 s (penalty due at 72 s) is
// released and re-acquired at 30 s, its fourteenth acquire in the window
// (penalty due at 90 s): it is still asleep at 80 s and awake by 95 s.
func TestDefDroidLatestPenaltyLiftsSuppression(t *testing.T) {
	e := simclock.NewEngine()
	d := NewDefDroid(e)
	pm := powermgr.New(e, power.NewMeter(e), binder.NewRegistry(), device.PixelXL, d)
	wl := pm.NewWakelock(10, hooks.Wakelock, "loop")
	for i := 0; i <= 12; i++ {
		e.RunUntil(time.Duration(i) * time.Second)
		if i > 0 {
			wl.Release()
		}
		wl.Acquire()
	}
	if pm.Awake() {
		t.Fatal("the thirteenth acquire in a minute should be suppressed")
	}
	wl.Release()
	e.RunUntil(30 * time.Second)
	wl.Acquire()
	e.RunUntil(80 * time.Second)
	if pm.Awake() {
		t.Fatal("the first penalty lifted the suppression the second one set")
	}
	e.RunUntil(95 * time.Second)
	if !pm.Awake() {
		t.Fatal("the second penalty should have lifted the suppression at 90 s")
	}
}

func TestDefDroidDutyCyclesGPS(t *testing.T) {
	r := newRig(nil)
	d := NewDefDroid(r.engine)
	r.loc.SetGovernor(d)
	r.loc.Register(10, time.Second, nil)
	r.engine.RunUntil(299 * time.Second)
	if r.meter.InstantPowerOfW(10) == 0 {
		t.Fatal("GPS should run during the grace period")
	}
	r.engine.RunUntil(315 * time.Second) // off phase 300–330 s
	if r.meter.InstantPowerOfW(10) != 0 {
		t.Fatal("duty-cycle off phase should cut GPS power")
	}
	r.engine.RunUntil(345 * time.Second) // on phase 330–360 s
	if r.meter.InstantPowerOfW(10) == 0 {
		t.Fatal("duty-cycle on phase should restore GPS power")
	}
}

func TestDefDroidReleaseCancelsThrottling(t *testing.T) {
	e := simclock.NewEngine()
	d := NewDefDroid(e)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, d)
	wl := pm.NewWakelock(10, hooks.Wakelock, "ok")
	wl.Acquire()
	e.RunUntil(30 * time.Second)
	wl.Release()
	e.RunUntil(25 * time.Minute) // the old timer must not fire
	wl.Acquire()
	if !pm.Awake() {
		t.Fatal("fresh acquire after release should not be throttled")
	}
}

// --- Throttle ---

func TestThrottleRevokesAfterSingleTerm(t *testing.T) {
	e := simclock.NewEngine()
	th := NewThrottle(e)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, th)
	wl := pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	e.RunUntil(2 * time.Minute)
	if pm.Awake() {
		t.Fatal("single-term throttle should have revoked the wakelock")
	}
	// No automatic restoration, ever — this is what disrupts normal apps.
	e.RunUntil(30 * time.Minute)
	if pm.Awake() {
		t.Fatal("throttle must not restore on its own")
	}
	if th.Revocations != 1 {
		t.Fatalf("Revocations = %d, want 1", th.Revocations)
	}
}

func TestThrottleDisruptsLegitimateGPS(t *testing.T) {
	// The §7.4 usability scenario: a RunKeeper-like tracker loses its GPS
	// feed under pure throttling.
	r := newRig(nil)
	th := NewThrottle(r.engine)
	r.loc.SetGovernor(th)
	r.world.SetMotion(true, 3)
	fixes := 0
	r.loc.Register(10, time.Second, func(location.Fix) { fixes++ })
	r.engine.RunUntil(10 * time.Minute)
	// Fixes flow only in the first minute: ~55 of a possible ~595.
	if fixes > 60 {
		t.Fatalf("fixes = %d; throttle should have stopped tracking", fixes)
	}
	if th.Revocations != 1 {
		t.Fatalf("Revocations = %d", th.Revocations)
	}
}

func TestThrottleResetOnReacquire(t *testing.T) {
	e := simclock.NewEngine()
	th := NewThrottle(e)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	pm := powermgr.New(e, m, reg, device.PixelXL, th)
	wl := pm.NewWakelock(10, hooks.Wakelock, "x")
	wl.Acquire()
	e.RunUntil(2 * time.Minute)
	wl.Release()
	wl.Acquire()
	if !pm.Awake() {
		t.Fatal("release + re-acquire should reset the throttle")
	}
}

// TestThrottleDefaultTerm pins the single term at one minute: a held
// wakelock survives 59.999 s and is revoked at 60 s.
func TestThrottleDefaultTerm(t *testing.T) {
	e := simclock.NewEngine()
	th := NewThrottle(e)
	pm := powermgr.New(e, power.NewMeter(e), binder.NewRegistry(), device.PixelXL, th)
	pm.NewWakelock(10, hooks.Wakelock, "x").Acquire()
	e.RunUntil(time.Minute - time.Millisecond)
	if !pm.Awake() {
		t.Fatal("revoked before the one-minute term")
	}
	e.RunUntil(time.Minute)
	if pm.Awake() {
		t.Fatalf("term = %v, want 1m: not revoked at one minute", throttleTerm)
	}
}

func TestDefDroidListenerGraceAccumulatesAcrossEpisodes(t *testing.T) {
	// The listener grace is a *total* active budget, not per-episode: a
	// 4-minute session against a 5-minute grace leaves only 1 minute before
	// duty cycling starts in the second session.
	r := newRig(nil)
	d := NewDefDroid(r.engine)
	r.loc.SetGovernor(d)
	req := r.loc.Register(10, time.Second, nil)
	r.engine.RunUntil(240 * time.Second)
	req.Unregister()
	r.engine.RunUntil(250 * time.Second)
	req.Reregister() // 60 s of grace left
	r.engine.RunUntil(305 * time.Second)
	if r.meter.InstantPowerOfW(10) == 0 {
		t.Fatal("still inside the accumulated grace")
	}
	r.engine.RunUntil(315 * time.Second) // grace exhausted at 310 s → duty off
	if r.meter.InstantPowerOfW(10) != 0 {
		t.Fatal("grace should be exhausted across episodes")
	}
}

func TestDozeObjectCreatedDuringDozeSuppressed(t *testing.T) {
	e := simclock.NewEngine()
	w := env.New()
	d := NewDoze(e, w, true, nil, nil)
	m := power.NewMeter(e)
	reg := binder.NewRegistry()
	loc := location.New(e, m, reg, device.PixelXL, w, d)
	e.RunUntil(time.Second) // dozing
	loc.Register(10, time.Second, nil)
	if m.InstantPowerOfW(10) != 0 {
		t.Fatal("a listener registered during doze must start suppressed")
	}
}

// --- Recycled records ---

// TestDefDroidStalePenaltyMissesRecycledRecord: a destroyed object's record
// is recycled for the next object DefDroid tracks, so destroy must cancel its
// pending rate-limit penalty. Object A is rate-limited, so a penalty is
// pending at 72 s, and destroyed; object B is then rate-limited with its own
// penalty due at 92 s. A's penalty must not lift B's suppression (nor re-arm
// B's hold limit): B's CPU stays off until 92 s.
func TestDefDroidStalePenaltyMissesRecycledRecord(t *testing.T) {
	e := simclock.NewEngine()
	d := NewDefDroid(e)
	pm := powermgr.New(e, power.NewMeter(e), binder.NewRegistry(), device.PixelXL, d)
	rateLimit := func(wl *powermgr.Wakelock) {
		for i := 0; i < 13; i++ {
			if i > 0 {
				wl.Release()
				e.RunUntil(e.Now() + time.Second)
			}
			wl.Acquire()
		}
		if pm.Awake() {
			t.Fatal("the thirteenth acquire in a minute should be suppressed")
		}
	}
	a := pm.NewWakelock(10, hooks.Wakelock, "a")
	rateLimit(a) // penalty due at 72 s
	a.Release()
	a.Destroy()
	e.RunUntil(20 * time.Second)
	b := pm.NewWakelock(10, hooks.Wakelock, "b")
	rateLimit(b) // penalty due at 92 s
	e.RunUntil(80 * time.Second)
	if pm.Awake() {
		t.Fatal("a destroyed object's penalty lifted the next object's suppression")
	}
	e.RunUntil(95 * time.Second)
	if !pm.Awake() {
		t.Fatal("the object's own penalty should have lifted its suppression at 92 s")
	}
}

// TestThrottleStaleTimerMissesRecycledRecord: the same for Throttle's
// revocation timer. A is acquired (revocation due at 60 s) and destroyed; B,
// acquired at 20 s on A's recycled record, must hold until 80 s.
func TestThrottleStaleTimerMissesRecycledRecord(t *testing.T) {
	e := simclock.NewEngine()
	th := NewThrottle(e)
	pm := powermgr.New(e, power.NewMeter(e), binder.NewRegistry(), device.PixelXL, th)
	a := pm.NewWakelock(10, hooks.Wakelock, "a")
	a.Acquire()
	e.RunUntil(10 * time.Second)
	a.Destroy()
	e.RunUntil(20 * time.Second)
	b := pm.NewWakelock(10, hooks.Wakelock, "b")
	b.Acquire()
	e.RunUntil(70 * time.Second)
	if !pm.Awake() || th.Revocations != 0 {
		t.Fatalf("a destroyed object's revocation timer reached the next object: awake %v, %d revocations", pm.Awake(), th.Revocations)
	}
	e.RunUntil(90 * time.Second)
	if pm.Awake() || th.Revocations != 1 {
		t.Fatalf("the object's own term should have revoked it at 80 s: awake %v, %d revocations", pm.Awake(), th.Revocations)
	}
}
