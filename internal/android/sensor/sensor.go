// Package sensor models Android's SensorService.
//
// Apps register listeners for a sensor type and receive events at the
// requested rate while registered. Like GPS, sensors are listener-based
// (paper Table 1 note ✓*): the listener is always invoked when the sensor
// fires, so "holding without using" manifests as a listener outliving its
// bound Activity, and "low utility" manifests as deliveries that produce no
// UI updates or user interactions (the TapAndTurn and Riot cases, Table 5).
package sensor

import (
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/proxy"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

// Type names a sensor. Only identity matters to the resource model.
type Type int

// The sensor types the evaluated apps use.
const (
	Accelerometer Type = iota
	Orientation
	Light
	Proximity
	Camera // Haven's intrusion detection treats the camera like a sensor
)

func (t Type) String() string {
	switch t {
	case Accelerometer:
		return "accelerometer"
	case Orientation:
		return "orientation"
	case Light:
		return "light"
	case Proximity:
		return "proximity"
	case Camera:
		return "camera"
	default:
		return "sensor"
	}
}

// Event is one sensor reading delivered to a listener.
type Event struct {
	At   simclock.Time
	Type Type
	Seq  int
}

// feed is what the sensor service keeps per listener beside the shared proxy
// state: which sensor, how often, whom to call, and the pending tick.
type feed struct {
	typ     Type
	rate    time.Duration
	onEvent func(Event)

	tickEvent simclock.EventID
	seq       int

	// tickFn is the delivery callback, bound once at registration so the
	// per-tick scheduling never allocates a closure.
	tickFn func()
}

type listener = proxy.Object[feed]

// Service is the sensor manager.
type Service struct {
	proxy.Table[feed]
	engine   *simclock.Engine
	meter    *power.Meter
	registry *binder.Registry
	profile  device.Profile

	// Who is charged for sampling: every uid with an effective listener.
	holders proxy.Shares
}

// New creates the service.
func New(engine *simclock.Engine, meter *power.Meter, registry *binder.Registry, profile device.Profile, gov hooks.Governor) *Service {
	s := &Service{
		engine: engine, meter: meter, registry: registry, profile: profile,
		holders: proxy.Shares{Kind: hooks.SensorListener},
	}
	s.Table = proxy.New(engine, registry, gov, "sensor", s.reschedule, nil)
	return s
}

// Reset drops all listeners and draw attribution, keeping capacity, so a
// recycled service registers without reallocating.
func (s *Service) Reset() {
	s.Table.Reset()
	s.holders.Reset()
}

// Registration is the app-side handle for one sensor listener.
type Registration struct {
	svc *Service
	l   *listener
}

// Register starts sensor events of typ for uid at the given rate, invoking
// onEvent (which may be nil) per reading.
func (s *Service) Register(uid power.UID, typ Type, rate time.Duration, onEvent func(Event)) *Registration {
	if rate <= 0 {
		rate = 200 * time.Millisecond
	}
	s.registry.IPC()
	l := s.Create(uid, &s.holders, feed{typ: typ, rate: rate, onEvent: onEvent})
	l.X.tickFn = func() {
		l.X.tickEvent = 0
		s.deliver(l)
	}
	s.SetBoundAlive(l, true)
	s.SetHeld(l, true)
	return &Registration{svc: s, l: l}
}

// Unregister stops events; the kernel object survives for re-registration.
func (r *Registration) Unregister() { r.svc.Call(r.l, false) }

// Reregister resumes events on the same kernel object.
func (r *Registration) Reregister() { r.svc.Call(r.l, true) }

// SetBoundAlive records whether the listener's bound Activity is alive.
func (r *Registration) SetBoundAlive(alive bool) { r.svc.SetBoundAlive(r.l, alive) }

// Registered reports whether events are currently requested.
func (r *Registration) Registered() bool { return r.l.Held }

// ObjectID returns the kernel-object id backing this registration.
func (r *Registration) ObjectID() uint64 { return r.l.ID() }

// Destroy deallocates the kernel object.
func (r *Registration) Destroy() { r.svc.Kill(r.l) }

// reschedule makes the sensor follow a listener's change of state: its
// pending tick is dropped, the sampling draw re-applied, and a fresh tick
// scheduled if the listener is (still, or again) effective.
func (s *Service) reschedule(l *listener) {
	x := &l.X
	if x.tickEvent != 0 {
		s.engine.Cancel(x.tickEvent)
		x.tickEvent = 0
	}
	s.holders.Each(s.meter, power.Sensor, "sensor", s.profile.SensorW)
	if l.Effective() {
		x.tickEvent = s.engine.Schedule(x.rate, x.tickFn)
	}
}

func (s *Service) deliver(l *listener) {
	if !l.Effective() {
		return
	}
	s.Settle(l)
	x := &l.X
	x.seq++
	l.Acc.DataPoints++
	if x.onEvent != nil {
		x.onEvent(Event{At: s.engine.Now(), Type: x.typ, Seq: x.seq})
	}
	if l.Effective() {
		x.tickEvent = s.engine.Schedule(x.rate, x.tickFn)
	}
}
