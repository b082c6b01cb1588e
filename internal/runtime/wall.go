package runtime

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Wall drives a simclock.Engine from the Clock it is started on: events
// scheduled on it fire when that clock reaches their timestamp. It is the
// runtime adapter that lets the lease manager — written against the
// single-threaded simulation kernel — serve live traffic on Realtime, or run
// in a test on a view of the test's engine.
//
// The engine remains the single source of truth for pending events; Wall
// adds a mutex, an origin on the clock it follows, and one wake-up pending
// there at the engine's next deadline, which advances the engine to "now",
// firing everything due in order, and arms the next.
//
// Locking contract: all engine access — including the Clock methods Now,
// Schedule and Cancel — happens with the mutex held. External callers get
// the mutex through Do, which first catches the engine up to the current
// instant; event callbacks run under the wake-up, which holds the mutex, and
// may call the Clock methods directly. Calling them anywhere else is a data
// race; the race detector enforces this in tests.
type Wall struct {
	mu      sync.Mutex
	eng     *simclock.Engine
	drv     Clock         // the clock followed; nil until Start
	origin  simclock.Time // drv's instant at the engine's zero
	stopped bool

	// The wake-up pending on drv, when armed, is for the engine instant at.
	wake   simclock.EventID
	at     simclock.Time
	armed  bool
	wakeFn func() // wakeUp, bound once

	// loopDelay, when set, delays each deadline's wake-up by what it returns
	// (delayed marks the delayed one): the fault "late term checks". Events
	// still fire at their exact virtual timestamps, only late in wall terms.
	loopDelay func() time.Duration
	delayed   bool
}

// NewWall starts a wall clock on Realtime at virtual time zero.
func NewWall() *Wall {
	w := NewWallUnstarted()
	w.Start(Realtime)
	return w
}

// NewWallUnstarted creates a wall clock that follows no clock yet: RunVirtual
// advances it deterministically and Do runs against the frozen virtual
// instant. This is the recovery posture — a crashed daemon replays its
// journal into an unstarted wall, then calls Start.
func NewWallUnstarted() *Wall {
	w := &Wall{eng: simclock.NewEngine()}
	w.wakeFn = w.wakeUp
	return w
}

// RunVirtual advances the virtual clock to t, firing every event due at or
// before t in order — simclock.Engine.RunUntil. It is only legal before Start.
func (w *Wall) RunVirtual(t simclock.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.AdvanceVirtual(t)
}

// AdvanceVirtual is RunVirtual for a caller already inside Do: one critical
// section can replay a run of records, each at its own instant.
func (w *Wall) AdvanceVirtual(t simclock.Time) {
	if w.drv != nil {
		panic("runtime: virtual advance of a started Wall")
	}
	w.eng.RunUntil(t)
}

// ResetVirtual returns an unstarted wall's engine to virtual time zero with an
// empty event queue: a follower handed a fresh snapshot discards its divergent
// timeline wholesale and replays the new state from zero.
func (w *Wall) ResetVirtual() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.drv != nil {
		panic("runtime: Wall.ResetVirtual after Start")
	}
	w.eng.Reset()
}

// Start binds the virtual timeline to c — c's current instant becomes the
// engine's, so a clock that replayed to t=41s resumes at 41s, not zero — and
// arms the wake-up on c. Start must be called at most once and not after Stop.
// Do re-arms on c inside this Wall's lock, so c must take no lock held where
// Do is called: Realtime, or an engine the caller steps, never another Wall.
func (w *Wall) Start(c Clock) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.drv != nil {
		panic("runtime: Wall.Start called twice")
	}
	w.drv = c
	w.origin = c.Now() - w.eng.Now()
	w.armLocked()
}

// Started reports whether the virtual timeline follows a clock.
func (w *Wall) Started() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.drv != nil
}

// SetLoopDelay installs the pre-fire delay hook (nil uninstalls).
func (w *Wall) SetLoopDelay(fn func() time.Duration) {
	w.mu.Lock()
	w.loopDelay = fn
	w.mu.Unlock()
}

// catchUpLocked fires, in order, every event due by the followed clock's
// current instant, leaving the engine there; before Start it does nothing.
func (w *Wall) catchUpLocked() {
	if w.drv != nil {
		w.eng.RunUntil(w.drv.Now() - w.origin)
	}
}

// armLocked keeps a wake-up pending on the followed clock at or before the
// engine's next deadline: one already pending early enough stands, a later
// one is replaced.
func (w *Wall) armLocked() {
	next, ok := w.eng.Next()
	if !ok || w.armed && w.at <= next || w.drv == nil || w.stopped {
		return
	}
	if w.armed {
		w.drv.Cancel(w.wake)
	}
	d := time.Duration(next - (w.drv.Now() - w.origin))
	w.wake, w.at, w.armed = w.drv.Schedule(d, w.wakeFn), next, true
}

// wakeUp is the wake-up's callback on the followed clock.
func (w *Wall) wakeUp() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = false
	if w.stopped {
		return
	}
	if w.loopDelay != nil && !w.delayed {
		if d := w.loopDelay(); d > 0 {
			w.wake, w.armed, w.delayed = w.drv.Schedule(d, w.wakeFn), true, true
			return
		}
	}
	w.delayed = false
	w.catchUpLocked()
	w.armLocked()
}

// Do runs fn as a critical section on the clock: the engine is first caught
// up to the followed clock (firing any due events on this goroutine, in
// order), then fn executes with the clock frozen at that instant — the
// simulator's time-stands-still-during-a-callback semantics. Inside fn it is
// safe to call Now, Schedule and Cancel.
func (w *Wall) Do(fn func()) {
	w.mu.Lock()
	w.catchUpLocked()
	fn()
	w.armLocked() // fn may have scheduled an event before the wake-up
	w.mu.Unlock()
}

// Stop cancels the wake-up: pending events stop firing on their own, while Do
// keeps working and still catches the clock up, so a server can drain
// in-flight requests. Stop is idempotent.
func (w *Wall) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.armed {
		w.drv.Cancel(w.wake)
		w.armed = false
	}
}

// --- Clock implementation (call only under Do or from a callback) ---

// Now implements Clock. Within one Do section or callback the value is
// stable: the clock advances only between critical sections.
func (w *Wall) Now() simclock.Time { return w.eng.Now() }

// Schedule implements Clock.
func (w *Wall) Schedule(d time.Duration, fn func()) simclock.EventID { return w.eng.Schedule(d, fn) }

// ScheduleHandler implements Clock.
func (w *Wall) ScheduleHandler(d time.Duration, h simclock.Handler, arg uint64) simclock.EventID {
	return w.eng.ScheduleHandler(d, h, arg)
}

// Cancel implements Clock.
func (w *Wall) Cancel(id simclock.EventID) bool { return w.eng.Cancel(id) }

// Pending is the number of events scheduled and not yet fired or cancelled.
func (w *Wall) Pending() int { return w.eng.Len() }

var _ Clock = (*Wall)(nil)
