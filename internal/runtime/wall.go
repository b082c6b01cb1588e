package runtime

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Wall drives a simclock.Engine with real time: events scheduled on it fire
// when the wall clock reaches their timestamp. It is the runtime adapter
// that lets the lease manager — written against the single-threaded
// simulation kernel — serve live traffic.
//
// Design: the engine remains the single source of truth for pending events
// (slot free-list, generation-counted cancellation, deterministic ordering
// of equal timestamps); Wall adds a mutex, a wall-time origin, and a
// background goroutine that sleeps until the earliest pending event is due
// and then advances the engine to "wall now", firing everything due in
// order.
//
// Locking contract: all engine access — including the Clock methods Now,
// Schedule and Cancel — happens with the mutex held. External callers get
// the mutex through Do, which runs a critical section against a clock that
// has first been caught up to the current wall instant; event callbacks run
// on the background goroutine, which already holds the mutex, and may call
// the Clock methods directly. Calling Now/Schedule/Cancel outside Do or a
// callback is a data race; the race detector enforces this in tests.
type Wall struct {
	mu      sync.Mutex
	eng     *simclock.Engine
	start   time.Time
	started bool

	// loopDelay, when set, is consulted by the background loop each time a
	// deadline comes due, and the loop sleeps that long before firing. It is
	// the fault-injection hook for "late term checks": events still fire at
	// their exact virtual timestamps (determinism holds), they just fire
	// late in wall terms.
	loopDelay func() time.Duration

	wake     chan struct{} // poke the loop: the earliest deadline may have moved
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewWall starts a wall clock positioned at virtual time zero (= now).
func NewWall() *Wall {
	w := NewWallUnstarted()
	w.Start()
	return w
}

// NewWallUnstarted creates a wall clock whose timeline has not yet been
// bound to real time. Before Start, the engine behaves like the simulator:
// RunVirtual advances it deterministically, and Do runs critical sections
// against the frozen virtual instant without catching up to the wall. This
// is the recovery posture — a crashed daemon replays its journal into an
// unstarted wall, then calls Start to resume real-time operation from the
// replayed virtual instant.
func NewWallUnstarted() *Wall {
	return &Wall{
		eng:  simclock.NewEngine(),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// RunVirtual advances the virtual clock to t, firing every event due at or
// before t in deterministic order — exactly simclock.Engine.RunUntil. It
// may only be called before Start (journal replay); afterwards the
// background loop owns clock advancement.
func (w *Wall) RunVirtual(t simclock.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.AdvanceVirtual(t)
}

// AdvanceVirtual is RunVirtual for a caller already inside Do: one critical
// section can then replay a run of records, each at its own instant, without
// giving up the clock between them. Like RunVirtual it is only legal before
// Start.
func (w *Wall) AdvanceVirtual(t simclock.Time) {
	if w.started {
		panic("runtime: virtual advance of a started Wall")
	}
	w.eng.RunUntil(t)
}

// ResetVirtual returns an unstarted wall's engine to virtual time zero with
// an empty event queue (simclock.Engine.Reset), keeping allocated capacity.
// It is the replication catch-up primitive: a follower that reconnects and
// receives a fresh snapshot discards its divergent timeline wholesale and
// replays the new state from zero, exactly as if the shard had just booted.
// Like RunVirtual it is only legal before Start — once real time owns the
// clock there is no instant at which the timeline can be swapped out.
func (w *Wall) ResetVirtual() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		panic("runtime: Wall.ResetVirtual after Start")
	}
	w.eng.Reset()
}

// Start binds the virtual timeline to real time — wall "now" becomes the
// engine's current virtual instant, so a clock that replayed to t=41s
// resumes at 41s, not zero — and launches the background firing loop.
// Start must be called at most once and not after Stop.
func (w *Wall) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		panic("runtime: Wall.Start called twice")
	}
	w.started = true
	w.start = time.Now().Add(-time.Duration(w.eng.Now()))
	w.mu.Unlock()
	go w.loop()
}

// Started reports whether the virtual timeline has been bound to real time.
func (w *Wall) Started() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.started
}

// SetLoopDelay installs the loop's pre-fire delay hook (nil uninstalls).
// Call before Start or under no concurrent Start.
func (w *Wall) SetLoopDelay(fn func() time.Duration) {
	w.mu.Lock()
	w.loopDelay = fn
	w.mu.Unlock()
}

// wallNow is the current wall instant on the virtual timeline.
func (w *Wall) wallNow() simclock.Time {
	return simclock.Time(time.Since(w.start))
}

// catchUpLocked fires, in order, every event due at or before the current
// wall instant, leaving the engine clock at that instant. Callers hold mu.
// Before Start there is no wall instant: the clock stays frozen where
// RunVirtual left it.
func (w *Wall) catchUpLocked() {
	if !w.started {
		return
	}
	w.eng.RunUntil(w.wallNow())
}

// Do runs fn as a critical section on the clock: the engine is first caught
// up to wall time (firing any due events on this goroutine, in order), then
// fn executes with the clock frozen at that instant — the same
// time-stands-still-during-a-callback semantics the simulator gives event
// handlers. Inside fn it is safe to call Now, Schedule and Cancel and to
// touch any state that is only ever accessed under Do.
func (w *Wall) Do(fn func()) {
	w.mu.Lock()
	w.catchUpLocked()
	fn()
	w.mu.Unlock()
	// fn may have scheduled an event earlier than the loop's current
	// deadline; poke it to re-arm. Non-blocking: one pending poke is enough.
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Stop halts the background goroutine. Pending events stop firing; Do keeps
// working (and still catches the clock up inline), so a server can drain
// in-flight requests after stopping the timer loop. Stop is idempotent and
// returns once the loop has exited.
func (w *Wall) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		w.mu.Lock()
		started := w.started
		w.mu.Unlock()
		if !started {
			// No loop was ever launched; nothing will close done.
			close(w.done)
		}
	})
	<-w.done
}

// loop sleeps until the earliest pending event is due, then catches the
// engine up to wall time under the mutex.
func (w *Wall) loop() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		w.mu.Lock()
		w.catchUpLocked()
		next, ok := w.eng.Next()
		w.mu.Unlock()

		var due <-chan time.Time
		if ok {
			d := time.Duration(next) - time.Since(w.start)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
			due = timer.C
		}
		select {
		case <-w.stop:
			return
		case <-w.wake:
			if ok && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-due:
			// Fault hook: fire this deadline late. The sleep happens
			// without the mutex so Do-based traffic keeps flowing — which
			// is the point: requests observe state whose term check is
			// overdue. Catch-up at the top of the loop still fires the
			// event at its exact virtual timestamp.
			w.mu.Lock()
			delay := w.loopDelay
			w.mu.Unlock()
			if delay != nil {
				if d := delay(); d > 0 {
					time.Sleep(d)
				}
			}
		}
	}
}

// --- Clock implementation (call only under Do or from a callback) ---

// Now implements Clock. Within one Do section or callback the value is
// stable: the clock advances only between critical sections.
func (w *Wall) Now() simclock.Time { return w.eng.Now() }

// Schedule implements Clock.
func (w *Wall) Schedule(d time.Duration, fn func()) simclock.EventID {
	return w.eng.Schedule(d, fn)
}

// Cancel implements Clock.
func (w *Wall) Cancel(id simclock.EventID) bool { return w.eng.Cancel(id) }

var _ Clock = (*Wall)(nil)
