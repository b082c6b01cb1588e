// Package policy implements the baseline resource-management policies the
// paper compares LeaseOS against (§7.3): Android Doze (default and the
// forced-aggressive variant used in Table 5), DefDroid-style fine-grained
// throttling, and a pure time-based throttler (a lease with a single term,
// §7.4). The vanilla baseline is hooks.Nop.
package policy

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/env"
	"repro/internal/power"
	"repro/internal/simclock"
)

// Doze's schedule. Stock Doze engages once the device has been screen-off,
// stationary and untouched for dozeIdleThreshold: the paper calls it "very
// conservative (e.g., after the phone is idle for a long time and there is
// no angle change in 4 minutes)". Dozing is punctuated every
// dozeMaintenancePeriod by a dozeMaintenanceWindow in which deferred work
// runs.
const (
	dozeIdleThreshold     = 30 * time.Minute
	dozeMaintenancePeriod = 6 * time.Minute
	dozeMaintenanceWindow = time.Minute
)

// Doze defers background CPU and network activity when the device is
// unused: background apps' wakelocks, Wi-Fi locks, GPS and sensor listeners
// are suppressed and their background work is gated, except during
// maintenance windows. The screen is never deferred (a lit screen means the
// device is in use), which is why Doze barely helps the screen-wakelock
// defects in Table 5.
type Doze struct {
	engine *simclock.Engine
	world  *env.Environment
	// forced enters doze immediately instead of waiting for the idle
	// detector: the paper's "we made it aggressive by forcing it to take
	// effect at each experiment" (Table 5 footnote).
	forced bool

	// foreground reports whether uid is currently a foreground app;
	// reevaluate pokes the app framework after gating changes. Both are
	// wired by the simulation assembly.
	foreground func(uid power.UID) bool
	reevaluate func()

	objects map[uint64]hooks.Object
	// order holds the tracked IDs in creation order: suppression sweeps
	// must visit objects in a fixed order (maps iterate randomly) so meter
	// updates, and with them float accumulation, are run-to-run
	// deterministic.
	order []uint64

	dozing        bool
	inMaintenance bool
	idleTimer     simclock.EventID
	maintTimer    simclock.EventID

	// The idle-timer and the two maintenance callbacks, bound once in NewDoze.
	idleFn, maintFn, windowEndFn func()

	// DozeEnterCount counts how many times doze engaged (observability).
	DozeEnterCount int
	// Suppressions counts individual resource deferrals — each Suppress
	// issued against an app's object. It is the per-app intervention
	// metric the fleet sweep reports, comparable to the other governors'
	// Revocations counters.
	Suppressions int
}

// NewDoze creates the Doze governor, forced (Doze*) or stock. foreground and
// reevaluate may be nil (treated as "nothing is foreground" / no-op).
func NewDoze(engine *simclock.Engine, world *env.Environment, forced bool,
	foreground func(power.UID) bool, reevaluate func()) *Doze {
	if foreground == nil {
		foreground = func(power.UID) bool { return false }
	}
	if reevaluate == nil {
		reevaluate = func() {}
	}
	d := &Doze{
		engine: engine, world: world, forced: forced,
		foreground: foreground, reevaluate: reevaluate,
		objects: make(map[uint64]hooks.Object),
	}
	d.idleFn, d.maintFn, d.windowEndFn = d.idleExpired, d.maintenanceStart, d.maintenanceEnd
	world.Subscribe(d.onEnvChange)
	if forced {
		// Forced doze engages as soon as the simulation starts.
		engine.Schedule(0, d.enter)
	} else {
		d.armIdleTimer()
	}
	return d
}

// Dozing reports whether doze is currently engaged.
func (d *Doze) Dozing() bool { return d.dozing }

// Reset returns the governor to its just-constructed state and re-arms the
// initial enter event (forced) or idle timer, exactly as NewDoze does. It
// must run after every other component's Reset: NewDoze schedules before any
// app activity exists, so re-arming last reproduces the fresh engine's event
// sequence numbers and keeps a reused world byte-identical to a new one.
func (d *Doze) Reset() {
	for k := range d.objects {
		delete(d.objects, k)
	}
	d.order = d.order[:0]
	d.dozing = false
	d.inMaintenance = false
	d.idleTimer = 0
	d.maintTimer = 0
	d.DozeEnterCount = 0
	d.Suppressions = 0
	if d.forced {
		d.engine.Schedule(0, d.enter)
	} else {
		d.armIdleTimer()
	}
}

// deferrable reports whether doze may suppress this resource kind: the
// screen is exempt, and audio is exempt (active media playback keeps a
// device out of doze in practice).
func deferrable(k hooks.Kind) bool {
	return k != hooks.ScreenWakelock && k != hooks.AudioSession
}

func (d *Doze) onEnvChange() {
	if d.world.UserPresent() || d.world.Moving() {
		// Any non-trivial activity interrupts the deferral (paper §7.3).
		d.exit()
		return
	}
	if !d.dozing && !d.forced {
		d.armIdleTimer()
	}
}

func (d *Doze) armIdleTimer() {
	if d.idleTimer != 0 {
		d.engine.Cancel(d.idleTimer)
		d.idleTimer = 0
	}
	if d.world.UserPresent() || d.world.Moving() {
		return
	}
	d.idleTimer = d.engine.Schedule(dozeIdleThreshold, d.idleFn)
}

func (d *Doze) idleExpired() {
	d.idleTimer = 0
	if !d.world.UserPresent() && !d.world.Moving() {
		d.enter()
	}
}

func (d *Doze) enter() {
	if d.dozing {
		return
	}
	d.dozing = true
	d.inMaintenance = false
	d.DozeEnterCount++
	d.applySuppression()
	d.scheduleMaintenance()
	d.reevaluate()
}

func (d *Doze) exit() {
	if d.idleTimer != 0 {
		d.engine.Cancel(d.idleTimer)
		d.idleTimer = 0
	}
	if !d.dozing {
		if !d.forced {
			d.armIdleTimer()
		}
		return
	}
	d.dozing = false
	d.inMaintenance = false
	if d.maintTimer != 0 {
		d.engine.Cancel(d.maintTimer)
		d.maintTimer = 0
	}
	d.liftSuppression()
	d.reevaluate()
	if !d.forced {
		d.armIdleTimer()
	} else {
		// Forced doze re-engages once activity stops; model that with the
		// idle timer at a short threshold.
		d.idleTimer = d.engine.Schedule(time.Minute, d.idleFn)
	}
}

func (d *Doze) scheduleMaintenance() {
	if d.maintTimer != 0 {
		d.engine.Cancel(d.maintTimer)
	}
	d.maintTimer = d.engine.Schedule(dozeMaintenancePeriod, d.maintFn)
}

func (d *Doze) maintenanceStart() {
	d.maintTimer = 0
	if !d.dozing {
		return
	}
	d.inMaintenance = true
	d.liftSuppression()
	d.reevaluate()
	d.maintTimer = d.engine.Schedule(dozeMaintenanceWindow, d.windowEndFn)
}

func (d *Doze) maintenanceEnd() {
	d.maintTimer = 0
	if !d.dozing {
		return
	}
	d.inMaintenance = false
	d.applySuppression()
	d.reevaluate()
	d.scheduleMaintenance()
}

func (d *Doze) applySuppression() {
	for _, id := range d.order {
		if o, ok := d.objects[id]; ok && deferrable(o.Kind) && !d.foreground(o.UID) {
			d.Suppressions++
			o.Control.Suppress(o.ID)
		}
	}
}

func (d *Doze) liftSuppression() {
	for _, id := range d.order {
		if o, ok := d.objects[id]; ok && deferrable(o.Kind) {
			o.Control.Unsuppress(o.ID)
		}
	}
}

// --- hooks.Governor implementation ---

// ObjectCreated implements hooks.Governor.
func (d *Doze) ObjectCreated(o hooks.Object) {
	if _, ok := d.objects[o.ID]; !ok {
		d.order = append(d.order, o.ID)
	}
	d.objects[o.ID] = o
	if d.dozing && !d.inMaintenance && deferrable(o.Kind) && !d.foreground(o.UID) {
		d.Suppressions++
		o.Control.Suppress(o.ID)
	}
}

// ObjectReleased implements hooks.Governor.
func (d *Doze) ObjectReleased(hooks.Object) {}

// ObjectReacquired implements hooks.Governor: re-acquisition during doze
// stays deferred (unlike LeaseOS, Doze is not per-object adaptive).
func (d *Doze) ObjectReacquired(o hooks.Object) {
	if d.dozing && !d.inMaintenance && deferrable(o.Kind) && !d.foreground(o.UID) {
		d.Suppressions++
		o.Control.Suppress(o.ID)
	}
}

// ObjectDestroyed implements hooks.Governor.
func (d *Doze) ObjectDestroyed(o hooks.Object) {
	if _, ok := d.objects[o.ID]; ok {
		delete(d.objects, o.ID)
		for i, id := range d.order {
			if id == o.ID {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
}

// AllowBackgroundWork implements hooks.Governor: background work is gated
// while dozing, outside maintenance windows.
func (d *Doze) AllowBackgroundWork(uid power.UID) bool {
	if !d.dozing || d.inMaintenance {
		return true
	}
	return d.foreground(uid)
}

var _ hooks.Governor = (*Doze)(nil)
