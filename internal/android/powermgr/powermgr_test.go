package powermgr

import (
	"math"
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

type rig struct {
	engine *simclock.Engine
	meter  *power.Meter
	reg    *binder.Registry
	svc    *Service
}

func newRig(gov hooks.Governor) *rig {
	if gov == nil {
		gov = hooks.Nop{}
	}
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry(e)
	return &rig{engine: e, meter: m, reg: r, svc: New(e, m, r, device.PixelXL, gov)}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAcquireWakesCPU(t *testing.T) {
	r := newRig(nil)
	if r.svc.Awake() {
		t.Fatal("CPU should start asleep")
	}
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	if !r.svc.Awake() {
		t.Fatal("CPU should be awake with a held partial wakelock")
	}
	wl.Release()
	if r.svc.Awake() {
		t.Fatal("CPU should sleep once the wakelock array empties")
	}
}

func TestIdleAwakePowerAttributedToHolder(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	want := device.PixelXL.CPUIdleAwakeW
	if got := r.meter.InstantPowerOfW(10); !almost(got, want) {
		t.Fatalf("holder draw = %v, want %v", got, want)
	}
	wl.Release()
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw after release = %v, want 0", got)
	}
}

func TestIdleAwakePowerSplitsAcrossHolders(t *testing.T) {
	r := newRig(nil)
	a := r.svc.NewWakelock(10, hooks.Wakelock, "a")
	b := r.svc.NewWakelock(20, hooks.Wakelock, "b")
	a.Acquire()
	b.Acquire()
	half := device.PixelXL.CPUIdleAwakeW / 2
	if got := r.meter.InstantPowerOfW(10); !almost(got, half) {
		t.Fatalf("uid10 draw = %v, want %v", got, half)
	}
	if got := r.meter.InstantPowerOfW(20); !almost(got, half) {
		t.Fatalf("uid20 draw = %v, want %v", got, half)
	}
	b.Release()
	if got := r.meter.InstantPowerOfW(10); !almost(got, 2*half) {
		t.Fatalf("after other release, uid10 draw = %v, want %v", got, 2*half)
	}
}

func TestScreenWakelock(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.ScreenWakelock, "screen")
	wl.Acquire()
	if !r.svc.ScreenOn() || !r.svc.Awake() {
		t.Fatal("screen wakelock should light the screen and keep CPU awake")
	}
	if got := r.meter.InstantPowerOfW(10); !almost(got, device.PixelXL.ScreenOnW) {
		t.Fatalf("screen draw = %v, want %v", got, device.PixelXL.ScreenOnW)
	}
	wl.Release()
	if r.svc.ScreenOn() {
		t.Fatal("screen should be off after release")
	}
}

func TestUserScreenAttributedToSystem(t *testing.T) {
	r := newRig(nil)
	r.svc.SetUserScreen(true)
	if !r.svc.ScreenOn() || !r.svc.Awake() {
		t.Fatal("user screen should be on and keep the CPU awake")
	}
	wantSys := device.PixelXL.ScreenOnW + device.PixelXL.CPUIdleAwakeW + device.PixelXL.SuspendW
	if got := r.meter.InstantPowerOfW(power.SystemUID); !almost(got, wantSys) {
		t.Fatalf("system draw = %v, want %v", got, wantSys)
	}
	r.svc.SetUserScreen(false)
	if r.svc.Awake() {
		t.Fatal("CPU should sleep after user screen off")
	}
}

func TestSuppressRemovesPowerButKeepsHeld(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	id := wl.ObjectID()
	r.svc.Suppress(id)
	if !wl.IsHeld() {
		t.Fatal("suppression must be invisible to the app descriptor")
	}
	if r.svc.Awake() {
		t.Fatal("suppressed sole wakelock should let the CPU sleep")
	}
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("suppressed draw = %v, want 0", got)
	}
	r.svc.Unsuppress(id)
	if !r.svc.Awake() {
		t.Fatal("unsuppress should restore the wakelock effect")
	}
}

func TestReleaseDuringSuppressionSticks(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	id := wl.ObjectID()
	r.svc.Suppress(id)
	wl.Release()
	r.svc.Unsuppress(id)
	if r.svc.Awake() {
		t.Fatal("released-while-suppressed lock must not be restored")
	}
}

func TestAcquireDuringSuppressionPretendsSuccess(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	id := wl.ObjectID()
	r.svc.Suppress(id)
	wl.Release()
	wl.Acquire() // app re-acquires during the deferral window
	if !wl.IsHeld() {
		t.Fatal("acquire during suppression should appear to succeed")
	}
	if r.svc.Awake() {
		t.Fatal("acquire during suppression must not wake the CPU")
	}
	r.svc.Unsuppress(id)
	if !r.svc.Awake() {
		t.Fatal("after suppression lifts, the re-acquired lock takes effect")
	}
}

func TestTermStatsHeldAndActive(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	id := wl.ObjectID()
	r.engine.RunUntil(10 * time.Second)
	r.svc.Suppress(id)
	r.engine.RunUntil(25 * time.Second)
	ts := r.svc.TermStats(id)
	if ts.Held != 25*time.Second {
		t.Fatalf("Held = %v, want 25s", ts.Held)
	}
	if ts.Active != 10*time.Second {
		t.Fatalf("Active = %v, want 10s", ts.Active)
	}
	// Counters reset on read.
	ts2 := r.svc.TermStats(id)
	if ts2.Held != 0 || ts2.Active != 0 {
		t.Fatalf("TermStats did not reset: %+v", ts2)
	}
}

type recordingGov struct {
	hooks.Nop
	created, released, reacquired, destroyed int
}

func (g *recordingGov) ObjectCreated(hooks.Object)    { g.created++ }
func (g *recordingGov) ObjectReleased(hooks.Object)   { g.released++ }
func (g *recordingGov) ObjectReacquired(hooks.Object) { g.reacquired++ }
func (g *recordingGov) ObjectDestroyed(hooks.Object)  { g.destroyed++ }

func TestGovernorLifecycleCallbacks(t *testing.T) {
	gov := &recordingGov{}
	r := newRig(gov)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	wl.Acquire() // held no-op must not re-notify
	wl.Release()
	wl.Acquire()
	wl.Destroy()
	if gov.created != 1 || gov.released != 1 || gov.reacquired != 1 || gov.destroyed != 1 {
		t.Fatalf("callbacks = %+v", gov)
	}
}

func TestProcessDeathReapsWakelocks(t *testing.T) {
	gov := &recordingGov{}
	r := newRig(gov)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	r.reg.KillOwner(10)
	if r.svc.Awake() {
		t.Fatal("CPU should sleep after owner death")
	}
	if gov.destroyed != 1 {
		t.Fatal("governor not notified of destruction")
	}
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("dead process still draws %v", got)
	}
}

func TestAwakeChangeNotifications(t *testing.T) {
	r := newRig(nil)
	var transitions []bool
	r.svc.OnAwakeChange(func(a bool) { transitions = append(transitions, a) })
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	wl.Release()
	if len(transitions) != 2 || !transitions[0] || transitions[1] {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
}

func TestEnergyIntegrationEndToEnd(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Acquire()
	r.engine.RunUntil(100 * time.Second)
	wl.Release()
	r.engine.RunUntil(200 * time.Second)
	want := device.PixelXL.CPUIdleAwakeW * 100
	if got := r.meter.EnergyOfJ(10); !almost(got, want) {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

func TestInvalidKindPanics(t *testing.T) {
	r := newRig(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("GPS kind wakelock should panic")
		}
	}()
	r.svc.NewWakelock(10, hooks.GPSListener, "bad")
}

func TestSuppressUnknownIDNoop(t *testing.T) {
	r := newRig(nil)
	r.svc.Suppress(999)
	r.svc.Unsuppress(999)
	if ts := r.svc.TermStats(999); ts.Held != 0 {
		t.Fatal("unknown id should yield zero stats")
	}
}

func TestDestroyedWakelockIgnoresOps(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "test")
	wl.Destroy()
	wl.Acquire()
	if wl.IsHeld() || r.svc.Awake() {
		t.Fatal("acquire on destroyed wakelock should be inert")
	}
	wl.Release() // must not panic
}

func TestReferenceCountedWakelock(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "refcounted")
	wl.SetReferenceCounted(true)
	wl.Acquire()
	wl.Acquire()
	wl.Release()
	if !r.svc.Awake() {
		t.Fatal("one release of two acquires must keep a counted lock held")
	}
	wl.Release()
	if r.svc.Awake() {
		t.Fatal("balanced releases must drop the lock")
	}
	// Extra releases are harmless.
	wl.Release()
	wl.Acquire()
	if !r.svc.Awake() {
		t.Fatal("re-acquire after balance should hold again")
	}
}

func TestNonCountedWakelockIdempotent(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "plain")
	wl.Acquire()
	wl.Acquire()
	wl.Release() // single release suffices — the classic leak-prone pattern
	if r.svc.Awake() {
		t.Fatal("non-counted lock should release on first Release")
	}
}

func TestReferenceCountedLeakPattern(t *testing.T) {
	// The no-sleep bug family the paper cites: with reference counting, a
	// code path that acquires twice but releases once leaks the CPU.
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "leaky")
	wl.SetReferenceCounted(true)
	wl.Acquire()
	wl.Acquire() // second code path
	wl.Release() // only one release
	if !r.svc.Awake() {
		t.Fatal("unbalanced counted lock should stay held — the energy bug")
	}
}

func TestAcquireTimeoutAutoReleases(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "timed")
	wl.AcquireTimeout(10 * time.Second)
	if !r.svc.Awake() {
		t.Fatal("timed acquire should hold")
	}
	r.engine.RunUntil(11 * time.Second)
	if r.svc.Awake() {
		t.Fatal("timed acquire should auto-release")
	}
}

func TestAcquireTimeoutSuperseded(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "timed")
	wl.AcquireTimeout(5 * time.Second)
	r.engine.RunUntil(3 * time.Second)
	wl.Acquire() // plain acquire cancels the auto-release
	r.engine.RunUntil(time.Minute)
	if !r.svc.Awake() {
		t.Fatal("plain acquire should supersede the pending auto-release")
	}
	wl.AcquireTimeout(10 * time.Second) // re-arm
	r.engine.RunUntil(71 * time.Second)
	if r.svc.Awake() {
		t.Fatal("re-armed timeout should release at 70 s")
	}
}

func TestAcquireTimeoutNonPositiveIsPlain(t *testing.T) {
	r := newRig(nil)
	wl := r.svc.NewWakelock(10, hooks.Wakelock, "timed")
	wl.AcquireTimeout(0)
	r.engine.RunUntil(time.Hour)
	if !r.svc.Awake() {
		t.Fatal("non-positive timeout should behave like a plain acquire")
	}
}
