// Package location models Android's LocationManagerService for the GPS
// resource.
//
// Apps register listeners to receive location updates; the GPS radio is
// powered while at least one effective (registered, unsuppressed) listener
// exists. Obtaining a fix takes time and depends on signal quality: in a
// good-signal environment a lock arrives after a short search and periodic
// fixes follow; in a weak-signal environment (inside a building, the
// BetterWeather condition of paper Fig. 1) the search never locks, which is
// what produces the Frequent-Ask misbehaviour — significant power spent in
// the asking stage with no value produced.
//
// Because GPS is listener-based, "using" the resource has a different
// semantic from wakelocks (paper Table 1 note ✓*): the listener is always
// invoked when data arrives, so utilisation is measured as the lifetime of
// the app Activity bound to the listener over the lifetime of the listener
// (paper §3.3). Listeners carry a bound-activity liveness flag for that.
package location

import (
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/proxy"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/power"
	"repro/internal/simclock"
)

// LockTime is how long a GPS search takes to first fix under good signal.
const LockTime = 5 * time.Second

// Fix is one delivered location update. Position is modelled in one
// dimension; only distances matter to the utility metrics.
type Fix struct {
	At        simclock.Time
	PositionM float64
	// DistanceM is the distance covered since this listener's previous fix.
	DistanceM float64
}

// search is what the location service keeps per listener beside the shared
// proxy state: the fix callback, the search / fix schedule and the last
// delivered position.
type search struct {
	interval time.Duration
	onFix    func(Fix)

	locked    bool
	fixEvent  simclock.EventID
	lockEvent simclock.EventID

	// lockFn/fixFn are the listener's search-complete and fix-delivery
	// callbacks, bound once at registration so the per-event scheduling in
	// reschedule/deliver never allocates a closure.
	lockFn func()
	fixFn  func()

	lastFixPos float64
	haveFixPos bool
}

type listener = proxy.Object[search]

// Service is the location manager.
type Service struct {
	proxy.Table[search]
	engine   *simclock.Engine
	meter    *power.Meter
	registry *binder.Registry
	profile  device.Profile
	world    *env.Environment

	// Who the GPS radio's draw is split among.
	holders proxy.Shares

	// 1-D device position integrated from environment speed.
	pos     float64
	posTime simclock.Time
}

// New creates the service and subscribes it to environment changes.
func New(engine *simclock.Engine, meter *power.Meter, registry *binder.Registry, profile device.Profile, world *env.Environment, gov hooks.Governor) *Service {
	s := &Service{
		engine: engine, meter: meter, registry: registry, profile: profile, world: world,
		holders: proxy.Shares{Kind: hooks.GPSListener},
	}
	s.Table = proxy.New(engine, registry, gov, "location", s.changed, accrue)
	world.Subscribe(s.onEnvChange)
	return s
}

// Reset drops all listeners and draw attribution and rewinds the device
// position, keeping capacity. The environment subscription wired at
// construction time stays valid across world reuse.
func (s *Service) Reset() {
	s.Table.Reset()
	s.holders.Reset()
	s.pos = 0
	s.posTime = 0
}

// position integrates device movement up to now.
func (s *Service) position() float64 {
	now := s.engine.Now()
	if dt := now - s.posTime; dt > 0 {
		s.pos += s.world.SpeedMps() * dt.Seconds()
		s.posTime = now
	}
	return s.pos
}

// onEnvChange restarts every listener's search or fix schedule under the new
// signal and speed. Listeners are walked in creation order: events scheduled
// for the same instant fire in scheduling order, so the order of this walk is
// the order of their next fixes.
func (s *Service) onEnvChange() {
	s.position() // settle position under the previous speed
	for _, l := range s.Objects() {
		s.reschedule(l)
	}
}

// Request is the app-side handle for one registration, the analogue of the
// LocationListener plus its PendingIntent token.
type Request struct {
	svc *Service
	l   *listener
}

// Register starts location updates for uid at the given interval, invoking
// onFix (which may be nil) for every delivered fix. The listener's bound
// activity starts alive.
func (s *Service) Register(uid power.UID, interval time.Duration, onFix func(Fix)) *Request {
	if interval <= 0 {
		interval = time.Second
	}
	s.registry.IPC()
	l := s.Create(uid, &s.holders, search{interval: interval, onFix: onFix})
	l.X.lockFn = func() {
		l.X.lockEvent = 0
		s.Settle(l)
		l.X.locked = true
		// Settle classified the just-finished search interval as failed
		// request time; it succeeded, so reclassify the last LockTime
		// (it remains counted in RequestTime).
		if l.Acc.FailedRequestTime >= LockTime {
			l.Acc.FailedRequestTime -= LockTime
		} else {
			l.Acc.FailedRequestTime = 0
		}
		s.deliver(l)
	}
	l.X.fixFn = func() {
		l.X.fixEvent = 0
		s.deliver(l)
	}
	s.SetBoundAlive(l, true)
	s.SetHeld(l, true)
	return &Request{svc: s, l: l}
}

// Unregister stops updates (Android removeUpdates). The kernel object stays
// alive for possible re-registration through Reregister.
func (r *Request) Unregister() { r.svc.Call(r.l, false) }

// Reregister resumes updates on the same kernel object.
func (r *Request) Reregister() { r.svc.Call(r.l, true) }

// SetBoundAlive records whether the app Activity bound to this listener is
// alive; it drives the Used term statistic.
func (r *Request) SetBoundAlive(alive bool) { r.svc.SetBoundAlive(r.l, alive) }

// Registered reports whether updates are currently requested.
func (r *Request) Registered() bool { return r.l.Held }

// ObjectID returns the kernel-object id backing this registration, usable
// with the service's Controller interface (profilers pull TermStats by it).
func (r *Request) ObjectID() uint64 { return r.l.ID() }

// Destroy deallocates the kernel object.
func (r *Request) Destroy() { r.svc.Kill(r.l) }

// accrue adds what only GPS counts to a listener's active time: while it is
// still searching, the whole interval was request time, and it failed (no
// fix arrived during it).
func accrue(l *listener, active time.Duration) {
	if !l.X.locked {
		l.Acc.RequestTime += active
		l.Acc.FailedRequestTime += active
	}
}

// changed makes the radio follow a listener's change of state. A listener
// that stops being effective loses its lock: a fresh search is needed once it
// is registered or restored again.
func (s *Service) changed(l *listener) {
	if !l.Effective() {
		l.X.locked = false
	}
	s.reschedule(l)
}

// reschedule cancels and re-establishes l's pending search or fix events
// according to current state and signal quality.
func (s *Service) reschedule(l *listener) {
	x := &l.X
	if x.lockEvent != 0 {
		s.engine.Cancel(x.lockEvent)
		x.lockEvent = 0
	}
	if x.fixEvent != 0 {
		s.engine.Cancel(x.fixEvent)
		x.fixEvent = 0
	}
	s.holders.Split(s.meter, power.GPS, "gps", s.profile.GPSActiveW)
	if !l.Effective() {
		return
	}
	if s.world.GPS() != env.GPSGood {
		// Searching without a lock: failed request time accrues via Settle.
		s.Settle(l)
		x.locked = false
		return
	}
	if !x.locked {
		x.lockEvent = s.engine.Schedule(LockTime, x.lockFn)
		return
	}
	x.fixEvent = s.engine.Schedule(x.interval, x.fixFn)
}

// deliver sends one fix to l and schedules the next.
func (s *Service) deliver(l *listener) {
	if !l.Effective() || s.world.GPS() != env.GPSGood {
		return
	}
	s.Settle(l)
	x := &l.X
	pos := s.position()
	dist := 0.0
	if x.haveFixPos {
		dist = pos - x.lastFixPos
		if dist < 0 {
			dist = -dist
		}
	}
	x.lastFixPos, x.haveFixPos = pos, true
	l.Acc.DataPoints++
	l.Acc.DistanceM += dist
	if x.onFix != nil {
		x.onFix(Fix{At: s.engine.Now(), PositionM: pos, DistanceM: dist})
	}
	if l.Effective() {
		x.fixEvent = s.engine.Schedule(x.interval, x.fixFn)
	}
}
