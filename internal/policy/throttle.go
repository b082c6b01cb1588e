package policy

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// throttleTerm is the throttler's single term, the length of the one lease
// term in the §7.4 comparison.
const throttleTerm = time.Minute

// Throttle is the pure time-based throttling scheme of the paper's §7.4
// comparison: "essentially leases with only a single term". Any resource
// held continuously longer than the single term is revoked and stays
// revoked until the app itself releases and re-acquires it. There is no
// utility feedback and no automatic restoration, which is why it disrupts
// legitimate background apps (RunKeeper's tracking, Spotify's streaming,
// Haven's monitoring all stop).
type Throttle struct {
	engine *simclock.Engine

	objects map[uint64]*thrObject
	free    []*thrObject // destroyed objects' records, for the next acquire

	// Revocations counts one-shot revocations; Disruptions is incremented
	// every time a revocation hits (it is the usability-impact metric of
	// §7.4, counted per suppression of an in-use resource).
	Revocations int
}

type thrObject struct {
	obj        hooks.Object
	held       bool
	suppressed bool
	timer      simclock.EventID
	// timerFn is the revocation callback, bound once per record and kept
	// when it is recycled, so every (re-)acquire schedules allocation-free.
	// Release cancels the timer, so none is pending on a recycled record.
	timerFn func()
}

// NewThrottle creates the single-term throttler.
func NewThrottle(engine *simclock.Engine) *Throttle {
	return &Throttle{engine: engine, objects: make(map[uint64]*thrObject)}
}

// Reset drops all tracked objects and zeroes the revocation counter,
// returning the governor to its NewThrottle state. The caller has already
// reset the engine, so pending timers need no cancellation.
func (t *Throttle) Reset() {
	for k, obj := range t.objects {
		delete(t.objects, k)
		t.recycle(obj)
	}
	t.Revocations = 0
}

func (t *Throttle) onAcquire(o hooks.Object) {
	obj, ok := t.objects[o.ID]
	if !ok {
		if n := len(t.free); n > 0 {
			obj, t.free = t.free[n-1], t.free[:n-1]
		} else {
			obj = t.newRecord()
		}
		obj.obj = o
		t.objects[o.ID] = obj
	}
	obj.held = true
	if obj.suppressed {
		// Release + re-acquire resets the one-shot throttle.
		obj.suppressed = false
		o.Control.Unsuppress(o.ID)
	}
	if obj.timer != 0 {
		t.engine.Cancel(obj.timer)
	}
	obj.timer = t.engine.Schedule(throttleTerm, obj.timerFn)
}

// newRecord makes a record with its revocation callback bound.
func (t *Throttle) newRecord() *thrObject {
	obj := &thrObject{}
	obj.timerFn = func() {
		obj.timer = 0
		if obj.held && !obj.suppressed {
			obj.suppressed = true
			t.Revocations++
			obj.obj.Control.Suppress(obj.obj.ID)
		}
	}
	return obj
}

// recycle clears a record no timer will reach and puts it on the free list.
func (t *Throttle) recycle(obj *thrObject) {
	*obj = thrObject{timerFn: obj.timerFn}
	t.free = append(t.free, obj)
}

// ObjectCreated implements hooks.Governor.
func (t *Throttle) ObjectCreated(o hooks.Object) { t.onAcquire(o) }

// ObjectReacquired implements hooks.Governor.
func (t *Throttle) ObjectReacquired(o hooks.Object) { t.onAcquire(o) }

// ObjectReleased implements hooks.Governor.
func (t *Throttle) ObjectReleased(o hooks.Object) {
	obj, ok := t.objects[o.ID]
	if !ok {
		return
	}
	obj.held = false
	if obj.suppressed {
		// Clear the service-side suppression so release + re-acquire resets
		// the one-shot throttle (no power effect on a released object).
		obj.suppressed = false
		o.Control.Unsuppress(o.ID)
	}
	if obj.timer != 0 {
		t.engine.Cancel(obj.timer)
		obj.timer = 0
	}
}

// ObjectDestroyed implements hooks.Governor.
func (t *Throttle) ObjectDestroyed(o hooks.Object) {
	t.ObjectReleased(o)
	if obj, ok := t.objects[o.ID]; ok {
		delete(t.objects, o.ID)
		t.recycle(obj)
	}
}

// AllowBackgroundWork implements hooks.Governor.
func (t *Throttle) AllowBackgroundWork(power.UID) bool { return true }

var _ hooks.Governor = (*Throttle)(nil)
