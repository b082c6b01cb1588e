package apps

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/android/location"
	"repro/internal/android/powermgr"
	"repro/internal/power"
	"repro/internal/sim"
)

// This file models the *fixed* releases of three case-study apps, as
// described in the paper's §2.1: developers repaired K-9 "by adding an
// exponential back-off and prompt wakelock release", Kontalk "by releasing
// the wakelock as soon as the app is authenticated", and BetterWeather by
// bounding its GPS search. They exist to quantify the paper's §1 claim that
// the lease mechanism relieves developers of this careful bookkeeping: a
// buggy app under LeaseOS should approach its fixed version under vanilla.

// FixedK9 retries with exponential back-off and releases the wakelock
// promptly around each attempt.
type FixedK9 struct {
	base
	wl      *powermgr.Wakelock
	backoff time.Duration
}

// NewFixedK9 builds the repaired model.
func NewFixedK9(s *sim.Sim, uid power.UID) *FixedK9 {
	return &FixedK9{base: newBase(s, uid, "K-9 (fixed)"), backoff: 10 * time.Second}
}

// Start implements App.
func (a *FixedK9) Start() {
	a.wl = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "k9-push-fixed")
	a.attempt()
}

func (a *FixedK9) attempt() {
	a.wl.Acquire()
	a.proc.RunWork(30*time.Millisecond, func() {
		a.proc.NetworkRequest(3*time.Second, func(err error) {
			if err != nil {
				// The fix: release promptly, back off exponentially.
				a.wl.Release()
				a.proc.AlarmAfter(a.backoff, a.attempt)
				if a.backoff < 10*time.Minute {
					a.backoff *= 2
				}
				return
			}
			a.backoff = 10 * time.Second
			a.proc.RunWork(time.Second, func() {
				a.wl.Release()
				a.proc.AlarmAfter(15*time.Minute, a.attempt)
			})
		})
	})
}

// FixedKontalk releases its wakelock as soon as authentication completes.
type FixedKontalk struct {
	base
}

// NewFixedKontalk builds the repaired model.
func NewFixedKontalk(s *sim.Sim, uid power.UID) *FixedKontalk {
	return &FixedKontalk{base: newBase(s, uid, "Kontalk (fixed)")}
}

// Start implements App.
func (a *FixedKontalk) Start() {
	wl := a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "kontalk-fixed")
	wl.Acquire()
	a.proc.RunWork(2*time.Second, func() {
		a.proc.NetworkRequest(time.Second, func(error) {
			wl.Release() // the fix: release right after authentication
		})
	})
}

// FixedBetterWeather gives up the GPS search after one bounded attempt per
// refresh and backs off to a long retry period under weak signal.
type FixedBetterWeather struct {
	base
	wl  *powermgr.Wakelock
	req *location.Request
}

// NewFixedBetterWeather builds the repaired model.
func NewFixedBetterWeather(s *sim.Sim, uid power.UID) *FixedBetterWeather {
	return &FixedBetterWeather{base: newBase(s, uid, "BetterWeather (fixed)")}
}

// Start implements App.
func (a *FixedBetterWeather) Start() {
	a.wl = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "bw-fixed")
	try := func() {
		a.wl.Acquire()
		if a.req == nil {
			a.req = a.s.Location.Register(a.UID(), 10*time.Second, func(location.Fix) {
				a.proc.NoteUIUpdate()
			})
		} else {
			a.req.Reregister()
		}
		// The fix: a short bounded search, then give up until the next
		// (long) refresh period instead of hammering the radio.
		a.proc.After(15*time.Second, func() {
			if a.req != nil {
				a.req.Unregister()
			}
			a.wl.Release()
		})
	}
	a.s.Engine.Schedule(0, try)
	a.proc.AlarmEvery(15*time.Minute, try)
}
