package leased

import (
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/holdsvc"
	"repro/internal/android/hooks"
	"repro/internal/android/location"
	"repro/internal/android/powermgr"
	"repro/internal/android/sensor"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/simclock"
)

// The lease-proxy contract of paper §4.6, stated once and run over every
// proxy in the repository: the simulator's six (powermgr's two wakelock
// kinds, wifi, audio, location, sensor — all package proxy underneath) and
// this package's resources, which shares only hooks.Hold with them. It lives
// here because resources is unexported and this is the one package whose
// tests can reach all seven.

// proxyRig is one lease proxy holding at most one kernel object, as the
// table drives it.
type proxyRig struct {
	advance func(time.Duration) // moves the proxy's clock
	create  func() uint64       // makes the kernel object, returns its id; listener kinds are born held
	hold    func()              // the app takes the resource; a no-op if it has it
	drop    func()              // the app gives it up
	kill    func()              // the kernel object is deallocated
	ctl     hooks.Controller
	// heard reports how often the governor has been told of a creation and
	// of a destruction.
	heard func() (created, destroyed int)
}

type lifecycleGov struct {
	hooks.Nop
	created, destroyed int
	newest             uint64 // the id of the object created last
}

func (g *lifecycleGov) ObjectCreated(o hooks.Object) { g.created++; g.newest = o.ID }
func (g *lifecycleGov) ObjectDestroyed(hooks.Object) { g.destroyed++ }

// simWorld is the part of a simulated device every service needs.
type simWorld struct {
	engine   *simclock.Engine
	meter    *power.Meter
	registry *binder.Registry
	gov      *lifecycleGov
}

func newSimWorld() *simWorld {
	e := simclock.NewEngine()
	return &simWorld{engine: e, meter: power.NewMeter(e), registry: binder.NewRegistry(), gov: &lifecycleGov{}}
}

// rig reads the object's id from the governor, which hears of it by the
// time it is first held, and kills it as its owner's death does: the
// registry reaps the token, and the service's death recipient destroys
// the object.
func (w *simWorld) rig(ctl hooks.Controller, create func(), hold, drop func()) proxyRig {
	return proxyRig{
		advance: func(d time.Duration) { w.engine.RunUntil(w.engine.Now() + d) },
		create:  func() uint64 { create(); return w.gov.newest },
		hold:    hold, drop: drop, ctl: ctl,
		kill:  func() { w.registry.KillOwner(10) },
		heard: func() (int, int) { return w.gov.created, w.gov.destroyed },
	}
}

// lockDesc is the descriptor of a lock-style resource (wakelocks, Wi-Fi
// locks, audio sessions), listenerDesc of a listener-style one (GPS, sensors).
type lockDesc interface {
	Acquire()
	Release()
}

type listenerDesc interface {
	Reregister()
	Unregister()
}

// lockRig holds the lock as it creates it: the script holds it next, at
// the same instant.
func (w *simWorld) lockRig(ctl hooks.Controller, mk func() lockDesc) proxyRig {
	var d lockDesc
	return w.rig(ctl, func() { d = mk(); d.Acquire() }, func() { d.Acquire() }, func() { d.Release() })
}

func (w *simWorld) listenerRig(ctl hooks.Controller, mk func() listenerDesc) proxyRig {
	var d listenerDesc
	return w.rig(ctl, func() { d = mk() }, func() { d.Reregister() }, func() { d.Unregister() })
}

func wakelockRig(kind hooks.Kind) func() proxyRig {
	return func() proxyRig {
		w := newSimWorld()
		svc := powermgr.New(w.engine, w.meter, w.registry, device.PixelXL, w.gov)
		return w.lockRig(svc, func() lockDesc { return svc.NewWakelock(10, kind, "conformance") })
	}
}

// daemonRig is a shard's kernel object on an unstarted wall, driven through
// the shard operations the HTTP routes apply. The object is its own
// controller, so it is acquired as the rig is built, at the instant the
// script's create would have. The governor is the shard's lease manager;
// its term is an hour, so no term check pulls the counters or defers the
// lease during the script.
func daemonRig() proxyRig {
	sh := freshShard(Options{Lease: lease.Config{Term: time.Hour}})
	o := sh.acquire("conformance", hooks.Wakelock)
	return proxyRig{
		advance: func(d time.Duration) { sh.clock.RunVirtual(sh.clock.Now() + d) },
		create:  func() uint64 { return o.lease.ObjectID() },
		hold:    func() { sh.renew(o, usageReport{}) },
		drop:    func() { sh.release(o) },
		kill:    func() { sh.destroy(o) },
		ctl:     o,
		heard: func() (int, int) {
			return sh.mgr.CreatedTotal(), sh.mgr.CreatedTotal() - sh.mgr.LeaseCount()
		},
	}
}

var proxies = []struct {
	name string
	rig  func() proxyRig
}{
	{"powermgr/partial", wakelockRig(hooks.Wakelock)},
	{"powermgr/screen", wakelockRig(hooks.ScreenWakelock)},
	{"wifi", func() proxyRig {
		w := newSimWorld()
		svc := holdsvc.New(w.engine, w.meter, w.registry, w.gov, "wifi", hooks.WifiLock, power.WiFi, device.PixelXL.WiFiLockW)
		return w.lockRig(svc, func() lockDesc { return svc.NewLock(10) })
	}},
	{"audio", func() proxyRig {
		w := newSimWorld()
		svc := holdsvc.New(w.engine, w.meter, w.registry, w.gov, "audio", hooks.AudioSession, power.Audio, device.PixelXL.AudioW)
		return w.lockRig(svc, func() lockDesc { return svc.NewLock(10) })
	}},
	{"location", func() proxyRig {
		w := newSimWorld()
		svc := location.New(w.engine, w.meter, w.registry, device.PixelXL, env.New(), w.gov)
		return w.listenerRig(svc, func() listenerDesc { return svc.Register(10, time.Second, nil) })
	}},
	{"sensor", func() proxyRig {
		w := newSimWorld()
		svc := sensor.New(w.engine, w.meter, w.registry, device.PixelXL, w.gov)
		return w.listenerRig(svc, func() listenerDesc {
			return svc.Register(10, sensor.Accelerometer, time.Second, nil)
		})
	}},
	{"leased", daemonRig},
}

func TestProxyConformance(t *testing.T) {
	const s = time.Second
	for _, p := range proxies {
		t.Run(p.name, func(t *testing.T) {
			r := p.rig()
			id := r.create()
			r.hold()
			// window asserts the Held and Active the proxy reports for the
			// time since the previous pull, exactly, and that the pull
			// zeroed every counter.
			window := func(when string, held, active time.Duration) {
				t.Helper()
				ts := r.ctl.TermStats(id)
				if ts.Held != held || ts.Active != active {
					t.Errorf("%s: Held/Active = %v/%v, want %v/%v", when, ts.Held, ts.Active, held, active)
				}
				if again := r.ctl.TermStats(id); again != (hooks.TermStats{}) {
					t.Errorf("%s: second pull at the same instant = %+v, want zero", when, again)
				}
			}

			r.advance(4 * s)
			r.ctl.Suppress(id)
			r.ctl.Suppress(id) // already suppressed: no-op
			r.advance(6 * s)
			window("suppressed for 6 s of 10", 10*s, 4*s) // still held, no longer active

			r.advance(3 * s)
			r.drop() // during suppression
			r.advance(2 * s)
			r.ctl.Unsuppress(id)
			r.advance(5 * s)
			window("dropped while suppressed, then restored", 3*s, 0) // the drop stuck

			r.hold()
			r.advance(6 * s)
			window("re-held after the suppression lifted", 6*s, 6*s)

			r.drop()
			r.advance(1 * s)
			r.ctl.Suppress(id)
			r.advance(1 * s)
			r.ctl.Unsuppress(id) // of a dropped object: must not re-hold
			r.advance(2 * s)
			window("suppress and restore of a dropped object", 0, 0)

			const unknown = 1 << 40
			r.ctl.Suppress(unknown)
			r.ctl.Unsuppress(unknown)
			if ts := r.ctl.TermStats(unknown); ts != (hooks.TermStats{}) {
				t.Errorf("TermStats of an unknown id = %+v, want zero", ts)
			}

			r.hold()
			r.advance(2 * s)
			r.kill()
			r.kill()
			if created, destroyed := r.heard(); created != 1 || destroyed != 1 {
				t.Errorf("governor heard %d creations and %d destructions, want 1 and 1", created, destroyed)
			}
			r.ctl.Suppress(id)
			r.ctl.Unsuppress(id)
			r.advance(1 * s)
			if ts := r.ctl.TermStats(id); ts != (hooks.TermStats{}) {
				t.Errorf("TermStats after destroy = %+v, want zero: the id is unknown", ts)
			}
		})
	}
}
