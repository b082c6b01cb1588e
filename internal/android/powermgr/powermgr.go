// Package powermgr models Android's PowerManagerService: partial wakelocks
// that keep the CPU awake and screen wakelocks that keep the display on.
//
// Semantics reproduced from the paper:
//   - Acquiring a wakelock adds a kernel object (IBinder) to an internal
//     array; the CPU may enter deep sleep only when that array is empty and
//     the screen is off (§4.4: "the power manager subsystem essentially adds
//     the kernel object, IBinder, into an internal array, which will be
//     checked to determine if the CPU should enter deep sleep mode").
//   - A governor can suppress an object: the proxy "needs to remove the
//     IBinder from the array inside onExpire" while the app-side descriptor
//     stays valid; acquire IPCs during suppression pretend to succeed and a
//     release during suppression sticks (§4.6).
package powermgr

import (
	"fmt"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/proxy"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

// object is the kernel-side record of one wakelock: the shared proxy state
// and nothing else.
type object = proxy.Object[struct{}]

// Service is the power manager.
type Service struct {
	proxy.Table[struct{}]
	engine   *simclock.Engine
	meter    *power.Meter
	sys      *power.Owner // the system's meter record, resolved once
	registry *binder.Registry
	profile  device.Profile

	// Who holds the CPU awake and who holds the screen on: the two draws
	// wakelocks are charged for.
	partial proxy.Shares
	screen  proxy.Shares

	userScreen bool // screen forced on by active user session
	awake      bool
	screenOn   bool

	awakeSubs []func(awake bool)

	// AwakeTime accumulates total CPU-awake time for diagnostics.
	AwakeTime  time.Duration
	awakeSince simclock.Time
}

// New creates the service. gov must be non-nil (use hooks.Nop{} for vanilla).
func New(engine *simclock.Engine, meter *power.Meter, registry *binder.Registry, profile device.Profile, gov hooks.Governor) *Service {
	s := &Service{
		engine: engine, meter: meter, sys: meter.Owner(power.SystemUID), registry: registry, profile: profile,
		partial: proxy.Shares{Kind: hooks.Wakelock}, screen: proxy.Shares{Kind: hooks.ScreenWakelock},
	}
	s.Table = proxy.New(engine, registry, gov, "power", func(*object) { s.recompute() }, nil)
	// Baseline suspend draw is always present and owned by the system.
	s.sys.Set(power.System, "suspend-base", profile.SuspendW)
	return s
}

// Reset drops all wakelock objects and accumulated state, keeping capacity.
// The meter has already been reset by the caller, so the baseline suspend
// draw is re-registered here exactly as New does. Awake-change subscribers
// are kept: they were wired at construction time and stay valid across world
// reuse.
func (s *Service) Reset() {
	s.Table.Reset()
	s.partial.Reset()
	s.screen.Reset()
	s.userScreen = false
	s.awake = false
	s.screenOn = false
	s.AwakeTime = 0
	s.awakeSince = 0
	s.sys.Set(power.System, "suspend-base", s.profile.SuspendW)
}

// Wakelock is the app-side descriptor bound to one kernel object. It mirrors
// android.os.PowerManager.WakeLock, including the reference-counting switch:
// a reference-counted lock needs as many releases as acquires (Android's
// default), while a non-counted lock releases on the first release call.
// This model defaults to non-counted because the paper's app models and
// defect patterns are written against idempotent acquire/release; call
// SetReferenceCounted(true) for Android-default semantics.
type Wakelock struct {
	svc *Service
	obj *object

	refCounted bool
	refs       int

	timeoutEvent simclock.EventID
}

// SetReferenceCounted switches the descriptor between reference-counted
// and idempotent acquire/release semantics, mirroring
// WakeLock.setReferenceCounted. Switch before first use.
func (w *Wakelock) SetReferenceCounted(counted bool) { w.refCounted = counted }

// NewWakelock creates a descriptor for uid. kind must be hooks.Wakelock
// (partial, keeps CPU on) or hooks.ScreenWakelock (keeps screen on). The
// kernel object is created eagerly, matching the one-to-one
// descriptor/kernel-object mapping; the governor learns about it on first
// acquire. name is Android's wakelock tag: it labels the call site and the
// model makes no other use of it.
func (s *Service) NewWakelock(uid power.UID, kind hooks.Kind, name string) *Wakelock {
	if kind != hooks.Wakelock && kind != hooks.ScreenWakelock {
		panic(fmt.Sprintf("powermgr: invalid wakelock kind %v", kind))
	}
	shares := &s.partial
	if kind == hooks.ScreenWakelock {
		shares = &s.screen
	}
	return &Wakelock{svc: s, obj: s.Create(uid, shares, struct{}{})}
}

// Acquire takes the wakelock. On a non-counted lock, acquiring an
// already-held lock is a no-op; on a reference-counted lock it increments
// the count that Release must balance.
func (w *Wakelock) Acquire() {
	s := w.svc
	o := w.obj
	if o.Destroyed() {
		return
	}
	s.registry.IPC()
	if w.timeoutEvent != 0 {
		// A plain acquire supersedes a pending timed auto-release.
		s.engine.Cancel(w.timeoutEvent)
		w.timeoutEvent = 0
	}
	if w.refCounted {
		w.refs++
	}
	s.SetHeld(o, true)
}

// AcquireTimeout takes the wakelock and auto-releases it after d, mirroring
// WakeLock.acquire(long timeout) — the defensive API that bounds the damage
// of a forgotten release. A later Acquire or AcquireTimeout supersedes the
// pending auto-release.
func (w *Wakelock) AcquireTimeout(d time.Duration) {
	if d <= 0 {
		w.Acquire()
		return
	}
	if w.timeoutEvent != 0 {
		w.svc.engine.Cancel(w.timeoutEvent)
		w.timeoutEvent = 0
	}
	w.Acquire()
	w.timeoutEvent = w.svc.engine.Schedule(d, func() {
		w.timeoutEvent = 0
		w.Release()
	})
}

// Release drops the wakelock (or one reference of a reference-counted
// lock). Releasing during suppression sticks: the object will not be
// restored when the suppression lifts.
func (w *Wakelock) Release() {
	s := w.svc
	o := w.obj
	if !o.Held {
		return
	}
	s.registry.IPC()
	if w.refCounted {
		w.refs--
		if w.refs > 0 {
			return
		}
		w.refs = 0
	}
	s.SetHeld(o, false)
}

// IsHeld reports whether the app currently holds the lock. Suppression is
// invisible to the app: a suppressed held lock still reports held.
func (w *Wakelock) IsHeld() bool { return w.obj.Held }

// ObjectID returns the kernel-object id backing this wakelock.
func (w *Wakelock) ObjectID() uint64 { return w.obj.ID() }

// Destroy deallocates the kernel object for good.
func (w *Wakelock) Destroy() { w.svc.Kill(w.obj) }

// SetUserScreen turns the screen on or off on behalf of the user session
// (power button / active interaction). Screen wakelocks held by apps keep
// the screen on regardless.
func (s *Service) SetUserScreen(on bool) {
	if s.userScreen == on {
		return
	}
	s.userScreen = on
	s.recompute()
}

// Awake reports whether the CPU is out of deep sleep.
func (s *Service) Awake() bool { return s.awake }

// TotalAwakeTime reports the cumulative CPU-awake time up to now.
func (s *Service) TotalAwakeTime() time.Duration {
	t := s.AwakeTime
	if s.awake {
		t += s.engine.Now() - s.awakeSince
	}
	return t
}

// ScreenOn reports whether the display is lit.
func (s *Service) ScreenOn() bool { return s.screenOn }

// OnAwakeChange subscribes to CPU awake/sleep transitions. The callback runs
// after the state has changed.
func (s *Service) OnAwakeChange(fn func(awake bool)) { s.awakeSubs = append(s.awakeSubs, fn) }

// recompute re-derives screen/CPU state and power draws after any change: a
// wakelock's vote has moved, or the user turned the screen on or off. Each
// component goes clear the system's fallback draw, split among the holders,
// set the fallback if nobody holds — in that order at every call, because a
// changed wattage ends an integration interval in the meter and the float
// sums follow the sequence of intervals.
func (s *Service) recompute() {
	now := s.engine.Now()
	nPartial, nScreen := s.partial.N(), s.screen.N()

	screenOn := s.userScreen || nScreen > 0
	awake := screenOn || nPartial > 0

	// Screen power: attributed to screen-lock holders if any, else to the
	// system while the user keeps the screen on.
	s.sys.Clear(power.Screen, "user-screen")
	s.screen.Split(s.meter, power.Screen, "screen-lock", s.profile.ScreenOnW)
	if nScreen == 0 && screenOn {
		s.sys.Set(power.Screen, "user-screen", s.profile.ScreenOnW)
	}

	// Idle-awake CPU power: attributed to partial-lock holders if any, else
	// to the system while the screen keeps the CPU up.
	s.sys.Clear(power.CPU, "awake-idle")
	s.partial.Split(s.meter, power.CPU, "wakelock-idle", s.profile.CPUIdleAwakeW)
	if nPartial == 0 && awake {
		s.sys.Set(power.CPU, "awake-idle", s.profile.CPUIdleAwakeW)
	}

	s.screenOn = screenOn
	if awake != s.awake {
		if s.awake {
			s.AwakeTime += now - s.awakeSince
		} else {
			s.awakeSince = now
		}
		s.awake = awake
		for _, fn := range s.awakeSubs {
			fn(awake)
		}
	}
}
