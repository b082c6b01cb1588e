// Package runtime abstracts the clock the lease manager (and any other
// clock-driven subsystem) runs on, so the same unmodified mechanism code can
// execute either inside the discrete-event simulator or against real wall
// time.
//
// The Clock interface is the exact scheduling surface lease.Manager needs:
// the current instant, one-shot scheduling of a closure or of a
// simclock.Handler, and cancellation. It is satisfied natively by
// *simclock.Engine — the simulation path pays no adapter and behaves
// bit-for-bit as before — by Realtime, the host clock, and by *Wall, which
// runs an engine on another Clock: the shard clock of the networked leased
// daemon (cmd/leased), on Realtime or, in its tests, on a view of the test's
// engine.
package runtime

import (
	"time"

	"repro/internal/simclock"
)

// Clock is the scheduling surface clock-driven mechanism code depends on.
//
// Time is virtual: a duration since the clock's origin (simulation start,
// or Wall creation). Events scheduled on the same Clock fire in timestamp
// order, ties in scheduling order, and never concurrently with each other —
// every Clock implementation but Realtime serializes its callbacks, which is
// what lets the single-threaded lease manager run unchanged on either one.
type Clock interface {
	// Now reports the current virtual instant.
	Now() simclock.Time
	// Schedule arranges for fn to run after d, returning an id for Cancel.
	Schedule(d time.Duration, fn func()) simclock.EventID
	// ScheduleHandler arranges for h.Fire(arg) to run after d, binding no
	// closure on an engine.
	ScheduleHandler(d time.Duration, h simclock.Handler, arg uint64) simclock.EventID
	// Cancel removes a pending event, reporting whether it was still
	// pending.
	Cancel(id simclock.EventID) bool
}

// The simulation engine is a Clock as-is.
var _ Clock = (*simclock.Engine)(nil)
