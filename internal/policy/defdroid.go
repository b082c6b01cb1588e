package policy

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// DefDroid's thresholds: the conservative settings the paper ascribes to
// blind throttling. They must be long to avoid breaking legitimate heavy use,
// which is exactly why they mitigate less than LeaseOS.
const (
	// ddHoldLimit: a hold-style resource (wakelock, screen, Wi-Fi) held
	// continuously this long is revoked. A re-acquire restores it and
	// restarts the clock.
	ddHoldLimit = 5 * time.Minute
	// More than ddRateLimit acquisitions within ddRateWindow suppress the
	// object for ddRatePenalty (DefDroid throttles "excessive requests").
	ddRateLimit   = 12
	ddRateWindow  = time.Minute
	ddRatePenalty = time.Minute
	// ddListenerGrace: a listener-style resource (GPS, sensor) active this
	// long in total is duty-cycled ddDutyOn on / ddDutyOff off thereafter.
	ddListenerGrace = 5 * time.Minute
	ddDutyOn        = 30 * time.Second
	ddDutyOff       = 30 * time.Second
)

type ddObject struct {
	obj        hooks.Object
	held       bool
	suppressed bool

	holdTimer simclock.EventID
	dutyTimer simclock.EventID
	// penaltyTimer is the pending rate-limit penalty: a new penalty replaces
	// it, so only the latest deadline lifts the suppression.
	penaltyTimer simclock.EventID

	activeSince  simclock.Time
	activeTotal  time.Duration
	dutyCycling  bool
	acquireTimes []simclock.Time

	// Bound timer callbacks, created once per record (in newRecord) and kept
	// when it is recycled, so the arm/duty-cycle/penalty scheduling paths
	// never allocate a closure.
	holdFn    func() // hold-limit or listener-grace expiry, by kind
	dutyEndFn func() // ddDutyOff expiry: lift suppression, start ddDutyOn
	dutyOnFn  func() // ddDutyOn expiry: back to dutyOff
	penaltyFn func() // rate-limit penalty expiry
}

// DefDroid applies fine-grained, threshold-based throttling per resource:
// long continuous holds are revoked, rapid re-acquisition is rate-limited,
// and long-running listeners are duty-cycled. It looks only at time, never
// at utility — the paper's critique — so its thresholds must stay
// conservative and it cannot tell navigation from a leak.
type DefDroid struct {
	engine *simclock.Engine

	objects map[uint64]*ddObject
	free    []*ddObject // destroyed objects' records, for the next track

	// Revocations counts throttling actions, for observability.
	Revocations int
}

// NewDefDroid creates the governor.
func NewDefDroid(engine *simclock.Engine) *DefDroid {
	return &DefDroid{engine: engine, objects: make(map[uint64]*ddObject)}
}

// Reset drops all tracked objects and zeroes the revocation counter,
// returning the governor to its NewDefDroid state. The caller has already
// reset the engine, so pending timers need no cancellation and every record
// is free to recycle.
func (d *DefDroid) Reset() {
	for k, obj := range d.objects {
		delete(d.objects, k)
		d.recycle(obj)
	}
	d.Revocations = 0
}

func isListener(k hooks.Kind) bool {
	return k == hooks.GPSListener || k == hooks.SensorListener
}

func (d *DefDroid) track(o hooks.Object) *ddObject {
	obj, ok := d.objects[o.ID]
	if !ok {
		if n := len(d.free); n > 0 {
			obj, d.free = d.free[n-1], d.free[:n-1]
		} else {
			obj = d.newRecord()
		}
		obj.obj = o
		d.objects[o.ID] = obj
	}
	return obj
}

// newRecord makes a record with its timer callbacks bound.
func (d *DefDroid) newRecord() *ddObject {
	obj := &ddObject{}
	obj.holdFn = func() {
		obj.holdTimer = 0
		switch {
		case !obj.held:
		case isListener(obj.obj.Kind):
			obj.dutyCycling = true
			d.dutyOff(obj)
		case !obj.suppressed:
			// Continuous hold exceeded the limit: revoke until re-acquire.
			obj.suppressed = true
			d.Revocations++
			obj.obj.Control.Suppress(obj.obj.ID)
		}
	}
	obj.dutyEndFn = func() {
		obj.dutyTimer = 0
		if !obj.held {
			obj.dutyCycling = false
			return
		}
		obj.suppressed = false
		obj.obj.Control.Unsuppress(obj.obj.ID)
		obj.dutyTimer = d.engine.Schedule(ddDutyOn, obj.dutyOnFn)
	}
	obj.dutyOnFn = func() {
		obj.dutyTimer = 0
		d.dutyOff(obj)
	}
	obj.penaltyFn = func() {
		obj.penaltyTimer = 0
		if obj.suppressed && obj.held {
			obj.suppressed = false
			obj.obj.Control.Unsuppress(obj.obj.ID)
			d.arm(obj)
		}
	}
	return obj
}

// recycle clears a record no timer will reach and puts it on the free list,
// keeping its bound callbacks and its acquireTimes capacity.
func (d *DefDroid) recycle(obj *ddObject) {
	*obj = ddObject{acquireTimes: obj.acquireTimes[:0],
		holdFn: obj.holdFn, dutyEndFn: obj.dutyEndFn, dutyOnFn: obj.dutyOnFn, penaltyFn: obj.penaltyFn}
	d.free = append(d.free, obj)
}

func (d *DefDroid) onAcquire(o hooks.Object) {
	obj := d.track(o)
	obj.held = true
	now := d.engine.Now()
	obj.activeSince = now

	// Rate limiting: prune the window, then count.
	cutoff := now - ddRateWindow
	kept := obj.acquireTimes[:0]
	for _, t := range obj.acquireTimes {
		if t >= cutoff {
			kept = append(kept, t)
		}
	}
	obj.acquireTimes = append(kept, now)
	if len(obj.acquireTimes) > ddRateLimit {
		d.penalize(obj)
		return
	}

	if obj.suppressed {
		// A re-acquire lifts a hold-limit revocation and restarts the clock.
		obj.suppressed = false
		o.Control.Unsuppress(o.ID)
	}
	d.arm(obj)
}

// arm starts the threshold timer appropriate to the object's kind.
func (d *DefDroid) arm(obj *ddObject) {
	if obj.holdTimer != 0 {
		d.engine.Cancel(obj.holdTimer)
		obj.holdTimer = 0
	}
	if isListener(obj.obj.Kind) {
		if obj.dutyCycling {
			return // duty cycle timers already running
		}
		remaining := ddListenerGrace - obj.activeTotal
		if remaining < 0 {
			remaining = 0
		}
		obj.holdTimer = d.engine.Schedule(remaining, obj.holdFn)
		return
	}
	obj.holdTimer = d.engine.Schedule(ddHoldLimit, obj.holdFn)
}

// dutyOff begins the off phase of a duty cycle.
func (d *DefDroid) dutyOff(obj *ddObject) {
	if !obj.held {
		obj.dutyCycling = false
		return
	}
	obj.suppressed = true
	d.Revocations++
	obj.obj.Control.Suppress(obj.obj.ID)
	obj.dutyTimer = d.engine.Schedule(ddDutyOff, obj.dutyEndFn)
}

// penalize applies a temporary rate-limit penalty.
func (d *DefDroid) penalize(obj *ddObject) {
	if !obj.suppressed {
		obj.suppressed = true
		d.Revocations++
		obj.obj.Control.Suppress(obj.obj.ID)
	}
	if obj.penaltyTimer != 0 {
		d.engine.Cancel(obj.penaltyTimer)
	}
	obj.penaltyTimer = d.engine.Schedule(ddRatePenalty, obj.penaltyFn)
}

// --- hooks.Governor implementation ---

// ObjectCreated implements hooks.Governor.
func (d *DefDroid) ObjectCreated(o hooks.Object) { d.onAcquire(o) }

// ObjectReacquired implements hooks.Governor.
func (d *DefDroid) ObjectReacquired(o hooks.Object) { d.onAcquire(o) }

// ObjectReleased implements hooks.Governor.
func (d *DefDroid) ObjectReleased(o hooks.Object) {
	obj := d.track(o)
	if obj.held && !obj.suppressed {
		obj.activeTotal += d.engine.Now() - obj.activeSince
	}
	obj.held = false
	if obj.suppressed {
		// Clear the service-side suppression so a future re-acquire starts
		// fresh (the object is released, so this has no power effect now).
		obj.suppressed = false
		o.Control.Unsuppress(o.ID)
	}
	if obj.holdTimer != 0 {
		d.engine.Cancel(obj.holdTimer)
		obj.holdTimer = 0
	}
	if obj.dutyTimer != 0 {
		d.engine.Cancel(obj.dutyTimer)
		obj.dutyTimer = 0
	}
	if obj.penaltyTimer != 0 {
		d.engine.Cancel(obj.penaltyTimer)
		obj.penaltyTimer = 0
	}
	obj.dutyCycling = false
}

// ObjectDestroyed implements hooks.Governor. Release cancels the record's
// timers, so the record is recycled at once.
func (d *DefDroid) ObjectDestroyed(o hooks.Object) {
	d.ObjectReleased(o)
	obj := d.objects[o.ID]
	delete(d.objects, o.ID)
	d.recycle(obj)
}

// AllowBackgroundWork implements hooks.Governor; DefDroid throttles
// resources, not work scheduling.
func (d *DefDroid) AllowBackgroundWork(power.UID) bool { return true }

var _ hooks.Governor = (*DefDroid)(nil)
