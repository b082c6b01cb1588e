package runtime

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Realtime is the host clock as a Clock, and the only code in this package
// that reads it: Now is the time since the process started, and an event
// runs once its delay has passed, on a goroutine of its own. Unlike an
// engine's, its events are not serialized with one another or with whoever
// scheduled them, so what it drives must serialize itself, as a Wall does.
// Its methods may be called from any goroutine. Its lock guards only its
// timer table and is never held while an event runs, so a Wall's Do may
// re-arm on it from inside any other clock's section.
var Realtime Clock = &realtime{timers: make(map[simclock.EventID]*time.Timer)}

var processStart = time.Now()

type realtime struct {
	mu     sync.Mutex
	last   simclock.EventID
	timers map[simclock.EventID]*time.Timer
}

func (*realtime) Now() simclock.Time { return simclock.Time(time.Since(processStart)) }

func (r *realtime) ScheduleHandler(d time.Duration, h simclock.Handler, arg uint64) simclock.EventID {
	return r.Schedule(d, func() { h.Fire(arg) })
}

func (r *realtime) Schedule(d time.Duration, fn func()) simclock.EventID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	id := r.last
	// The event takes the lock before anything else, so it finds its entry.
	r.timers[id] = time.AfterFunc(d, func() {
		r.mu.Lock()
		delete(r.timers, id)
		r.mu.Unlock()
		fn()
	})
	return id
}

func (r *realtime) Cancel(id simclock.EventID) bool {
	r.mu.Lock()
	t := r.timers[id]
	delete(r.timers, id)
	r.mu.Unlock()
	return t != nil && t.Stop()
}
