package location

import (
	"math"
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
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
	svc    *Service
}

func newRig(gov hooks.Governor) *rig {
	if gov == nil {
		gov = hooks.Nop{}
	}
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry()
	w := env.New()
	return &rig{engine: e, meter: m, reg: r, world: w, svc: New(e, m, r, device.PixelXL, w, gov)}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGoodSignalDeliversFixes(t *testing.T) {
	r := newRig(nil)
	var fixes []Fix
	req := r.svc.Register(10, 10*time.Second, func(f Fix) { fixes = append(fixes, f) })
	r.engine.RunUntil(60 * time.Second)
	// Lock at 5 s, then fixes every 10 s: 5,15,25,35,45,55 → 6 fixes.
	if len(fixes) != 6 {
		t.Fatalf("fixes = %d, want 6", len(fixes))
	}
	if !req.Registered() {
		t.Fatal("should remain registered")
	}
}

func TestGPSRadioPowerWhileRegistered(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, time.Second, nil)
	if got := r.meter.InstantPowerOfW(10); !almost(got, device.PixelXL.GPSActiveW) {
		t.Fatalf("GPS draw = %v, want %v", got, device.PixelXL.GPSActiveW)
	}
	req.Unregister()
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("GPS draw after unregister = %v, want 0", got)
	}
}

func TestWeakSignalNeverLocks(t *testing.T) {
	r := newRig(nil)
	r.world.SetGPS(env.GPSWeak)
	fixes := 0
	req := r.svc.Register(10, time.Second, func(Fix) { fixes++ })
	r.engine.RunUntil(10 * time.Minute)
	if fixes != 0 {
		t.Fatalf("weak signal delivered %d fixes, want 0", fixes)
	}
	ts := r.svc.TermStats(req.ObjectID())
	if ts.FailedRequestTime != 10*time.Minute {
		t.Fatalf("FailedRequestTime = %v, want 10m", ts.FailedRequestTime)
	}
	if ts.RequestTime != ts.FailedRequestTime {
		t.Fatalf("all request time should be failed: %+v", ts)
	}
	// The radio still burns power the whole time: the Frequent-Ask cost.
	if got := r.meter.EnergyOfJ(10); !almost(got, device.PixelXL.GPSActiveW*600) {
		t.Fatalf("energy = %v", got)
	}
}

func TestSuccessfulSearchNotCountedFailed(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, 10*time.Second, nil)
	r.engine.RunUntil(30 * time.Second)
	ts := r.svc.TermStats(req.ObjectID())
	if ts.FailedRequestTime != 0 {
		t.Fatalf("FailedRequestTime = %v, want 0 in good signal", ts.FailedRequestTime)
	}
	if ts.RequestTime != LockTime {
		t.Fatalf("RequestTime = %v, want %v", ts.RequestTime, LockTime)
	}
	if ts.DataPoints == 0 {
		t.Fatal("no data points recorded")
	}
}

func TestDistanceTracksMovement(t *testing.T) {
	r := newRig(nil)
	r.world.SetMotion(true, 2) // 2 m/s
	req := r.svc.Register(10, 10*time.Second, nil)
	r.engine.RunUntil(65 * time.Second)
	ts := r.svc.TermStats(req.ObjectID())
	// Fixes at 5,15,...,65 s; distance covered between first and last fix =
	// 60 s * 2 m/s = 120 m.
	if !almost(ts.DistanceM, 120) {
		t.Fatalf("DistanceM = %v, want 120", ts.DistanceM)
	}
}

func TestStationaryDeliversZeroDistance(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, 10*time.Second, nil)
	r.engine.RunUntil(60 * time.Second)
	ts := r.svc.TermStats(req.ObjectID())
	if ts.DistanceM != 0 {
		t.Fatalf("DistanceM = %v, want 0 when stationary", ts.DistanceM)
	}
	if ts.DataPoints == 0 {
		t.Fatal("stationary should still deliver fixes")
	}
}

func TestSuppressStopsFixesAndPower(t *testing.T) {
	r := newRig(nil)
	fixes := 0
	req := r.svc.Register(10, time.Second, func(Fix) { fixes++ })
	r.engine.RunUntil(10 * time.Second)
	got := fixes
	r.svc.Suppress(req.ObjectID())
	if p := r.meter.InstantPowerOfW(10); p != 0 {
		t.Fatalf("suppressed GPS draws %v", p)
	}
	r.engine.RunUntil(30 * time.Second)
	if fixes != got {
		t.Fatal("suppressed listener still received fixes")
	}
	if !req.Registered() {
		t.Fatal("suppression must be invisible to the app")
	}
	r.svc.Unsuppress(req.ObjectID())
	r.engine.RunUntil(60 * time.Second)
	if fixes <= got {
		t.Fatal("fixes should resume after unsuppress (after a new search)")
	}
}

func TestUnregisterDuringSuppressionSticks(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, time.Second, nil)
	r.svc.Suppress(req.ObjectID())
	req.Unregister()
	r.svc.Unsuppress(req.ObjectID())
	if req.Registered() {
		t.Fatal("unregistered-while-suppressed listener must stay unregistered")
	}
	if p := r.meter.InstantPowerOfW(10); p != 0 {
		t.Fatalf("draw = %v, want 0", p)
	}
}

func TestBoundActivityDrivesUsed(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, time.Second, nil)
	r.engine.RunUntil(10 * time.Second)
	req.SetBoundAlive(false) // activity destroyed, listener leaks
	r.engine.RunUntil(30 * time.Second)
	ts := r.svc.TermStats(req.ObjectID())
	if ts.Used != 10*time.Second {
		t.Fatalf("Used = %v, want 10s", ts.Used)
	}
	if ts.Held != 30*time.Second {
		t.Fatalf("Held = %v, want 30s", ts.Held)
	}
}

func TestEnvironmentTransitionWeakToGood(t *testing.T) {
	r := newRig(nil)
	r.world.SetGPS(env.GPSWeak)
	fixes := 0
	r.svc.Register(10, time.Second, func(Fix) { fixes++ })
	r.engine.RunUntil(time.Minute)
	if fixes != 0 {
		t.Fatal("no fixes expected in weak signal")
	}
	r.world.SetGPS(env.GPSGood)
	r.engine.RunUntil(2 * time.Minute)
	if fixes == 0 {
		t.Fatal("fixes should flow after signal recovers")
	}
}

func TestPowerSplitAcrossApps(t *testing.T) {
	r := newRig(nil)
	r.svc.Register(10, time.Second, nil)
	r.svc.Register(20, time.Second, nil)
	half := device.PixelXL.GPSActiveW / 2
	if got := r.meter.InstantPowerOfW(10); !almost(got, half) {
		t.Fatalf("uid10 draw = %v, want %v", got, half)
	}
}

type lifecycleGov struct {
	hooks.Nop
	created, released, reacquired, destroyed int
}

func (g *lifecycleGov) ObjectCreated(hooks.Object)    { g.created++ }
func (g *lifecycleGov) ObjectReleased(hooks.Object)   { g.released++ }
func (g *lifecycleGov) ObjectReacquired(hooks.Object) { g.reacquired++ }
func (g *lifecycleGov) ObjectDestroyed(hooks.Object)  { g.destroyed++ }

func TestLifecycleCallbacksAndDeath(t *testing.T) {
	gov := &lifecycleGov{}
	r := newRig(gov)
	req := r.svc.Register(10, time.Second, nil)
	req.Unregister()
	req.Reregister()
	r.reg.KillOwner(10)
	if gov.created != 1 || gov.released != 1 || gov.reacquired != 1 || gov.destroyed != 1 {
		t.Fatalf("callbacks = %+v", gov)
	}
	if p := r.meter.InstantPowerOfW(10); p != 0 {
		t.Fatalf("draw after death = %v", p)
	}
}

func TestDefaultIntervalApplied(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, 0, nil)
	if req.l.X.interval != time.Second {
		t.Fatalf("interval = %v, want 1s default", req.l.X.interval)
	}
}

func TestTermStatsUnknownID(t *testing.T) {
	r := newRig(nil)
	if ts := r.svc.TermStats(12345); ts.Held != 0 {
		t.Fatal("unknown id should yield zero stats")
	}
}
