// Package proxy is the lease proxy of paper §4.4, written once for every
// simulated resource service: a table of kernel objects, the hold state
// machine a governor drives through hooks.Controller, and the per-uid
// attribution of the power the held objects draw (Shares).
//
// A service keeps only what is particular to its resource: a per-object X
// (a listener's callback and pending event, say), what the hardware does when
// an object's state changes (the changed callback), and any counters beyond
// Held / Active / Used that accrue while an object is active (the accrue
// callback). Everything §4.6 says of every resource alike lives here: a
// suppressed object keeps its descriptor and stays Held, a release during
// suppression sticks, statistics cover the window since the governor's last
// pull.
package proxy

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// Object is one kernel object: the proxy's state, its binder token and the
// service's own X, in one record that is its token's death recipient.
// Services read Held and Suppressed freely but change them only through the
// Table, which settles the accounting first and tells the governor after.
type Object[X any] struct {
	hooks.Hold
	X X

	token  binder.Token
	table  *Table[X]
	shares *Shares

	everHeld   bool // the governor has been told of this object
	voting     bool // shares currently counts this object
	boundAlive bool
}

// ID returns the kernel-object id: the binder token's.
func (o *Object[X]) ID() uint64 { return o.token.ID() }

// UID returns the owning app.
func (o *Object[X]) UID() power.UID { return o.token.Owner() }

// Destroyed reports whether the kernel object has been deallocated. A
// destroyed object is never Held.
func (o *Object[X]) Destroyed() bool { return o.token.Dead() }

// BinderDied implements binder.DeathRecipient: the object goes with its token.
func (o *Object[X]) BinderDied() { o.table.destroy(o) }

// Table holds one service's kernel objects and implements hooks.Controller
// over them. Services embed it by value.
type Table[X any] struct {
	engine   *simclock.Engine
	registry *binder.Registry
	gov      hooks.Governor
	name     string
	changed  func(*Object[X])
	accrue   func(*Object[X], time.Duration)

	// live is every object not yet destroyed, in creation order. The
	// registry mints token ids in increasing order, so it is also sorted by
	// id and lookup is a binary search.
	live []*Object[X]
}

// New returns an empty table for the service called name. changed runs after
// every change to an object's Held, Suppressed or destroyed state, with the
// object's vote already moved in its Shares: the service re-applies its draws
// and makes the hardware follow. accrue, which may be nil, runs at every
// settle that found the object active, with the active time since the last
// one: the service adds its kind-specific counters to o.Acc.
func New[X any](engine *simclock.Engine, registry *binder.Registry, gov hooks.Governor, name string,
	changed func(*Object[X]), accrue func(*Object[X], time.Duration)) Table[X] {
	return Table[X]{engine: engine, registry: registry, gov: gov, name: name, changed: changed, accrue: accrue}
}

// SetGovernor replaces the governor. Intended for simulation assembly before
// any app activity, not for mid-run swaps.
func (t *Table[X]) SetGovernor(gov hooks.Governor) { t.gov = gov }

// Reset drops every object, keeping the table's capacity. Death links are
// not run: the registry is reset alongside.
func (t *Table[X]) Reset() {
	clear(t.live)
	t.live = t.live[:0]
}

// Objects returns the live objects in creation order. The caller must not
// keep the slice across a Create or a destroy.
func (t *Table[X]) Objects() []*Object[X] { return t.live }

// Create is new plus Init.
func (t *Table[X]) Create(uid power.UID, shares *Shares, x X) *Object[X] {
	o := new(Object[X])
	t.Init(o, uid, shares, x)
	return o
}

// Init mints a kernel object for uid into o (memory the caller owns, holding
// no live object), not held, of the kind shares is for and attributed through
// them. The governor learns of it at its first SetHeld.
func (t *Table[X]) Init(o *Object[X], uid power.UID, shares *Shares, x X) {
	*o = Object[X]{Hold: hooks.Hold{LastSettle: t.engine.Now()}, X: x, table: t, shares: shares}
	t.registry.Init(&o.token, uid, t.name)
	t.live = append(t.live, o)
	o.token.LinkToDeath(o)
}

// Kill deallocates o's kernel object for good, as the descriptor's owner
// asked or as process death does through the registry.
func (t *Table[X]) Kill(o *Object[X]) { t.registry.Kill(&o.token) }

// Settle brings o's counters up to now under the state it has been in since
// the last settle. Every state change settles first; a service settles
// before it changes what its accrue callback reads.
func (t *Table[X]) Settle(o *Object[X]) {
	active := o.Hold.Settle(t.engine.Now())
	if active == 0 {
		return
	}
	if o.boundAlive {
		o.Acc.Used += active
	}
	if t.accrue != nil {
		t.accrue(o, active)
	}
}

// SetHeld is the app taking or dropping the resource. The order of a change
// is the same for every kind: settle, flip, the service follows, the
// governor hears — Created the first time, Reacquired or Released after.
// Setting the state an object is already in, or any state on a destroyed
// object, is a no-op.
func (t *Table[X]) SetHeld(o *Object[X], held bool) {
	if o.Destroyed() || o.Held == held {
		return
	}
	t.Settle(o)
	o.Held = held
	t.follow(o)
	switch {
	case !held:
		t.gov.ObjectReleased(t.view(o))
	case o.everHeld:
		t.gov.ObjectReacquired(t.view(o))
	default:
		o.everHeld = true
		t.gov.ObjectCreated(t.view(o))
	}
}

// Call is a descriptor's acquire or release IPC: one binder round trip, then
// SetHeld. A descriptor whose object is destroyed or already in that state
// answers app-side, without the round trip.
func (t *Table[X]) Call(o *Object[X], held bool) {
	if o.Destroyed() || o.Held == held {
		return
	}
	t.registry.IPC()
	t.SetHeld(o, held)
}

// SetBoundAlive records whether the app Activity bound to a listener object
// is alive: Used accrues while it is and the object is active (paper §3.3's
// utilisation for listener-based resources). Objects start unbound, which
// leaves Used at zero for lock-style resources.
func (t *Table[X]) SetBoundAlive(o *Object[X], alive bool) {
	if o.boundAlive == alive {
		return
	}
	t.Settle(o)
	o.boundAlive = alive
}

// destroy runs once, as o's token dies.
func (t *Table[X]) destroy(o *Object[X]) {
	t.Settle(o)
	o.Held = false
	if i, ok := t.index(o.ID()); ok {
		t.live = slices.Delete(t.live, i, i+1)
	}
	t.follow(o)
	t.gov.ObjectDestroyed(t.view(o))
}

// follow moves o's vote if its effectiveness changed, then lets the service
// follow. At most one vote moves per call, which is what Shares relies on.
func (t *Table[X]) follow(o *Object[X]) {
	if eff := o.Effective(); eff != o.voting {
		o.voting = eff
		o.shares.move(o.UID(), eff)
	}
	t.changed(o)
}

func (t *Table[X]) view(o *Object[X]) hooks.Object {
	return hooks.Object{ID: o.ID(), UID: o.UID(), Kind: o.shares.Kind, Control: t}
}

func (t *Table[X]) index(id uint64) (int, bool) {
	return slices.BinarySearchFunc(t.live, id, func(o *Object[X], id uint64) int {
		return cmp.Compare(o.ID(), id)
	})
}

func (t *Table[X]) setSuppressed(id uint64, suppressed bool) {
	i, ok := t.index(id)
	if !ok || t.live[i].Suppressed == suppressed {
		return
	}
	o := t.live[i]
	t.Settle(o)
	o.Suppressed = suppressed
	t.follow(o)
}

// Suppress implements hooks.Controller: the object stops being effective
// while the descriptor stays valid and Held.
func (t *Table[X]) Suppress(id uint64) { t.setSuppressed(id, true) }

// Unsuppress implements hooks.Controller: the object is effective again if
// the app still holds it.
func (t *Table[X]) Unsuppress(id uint64) { t.setSuppressed(id, false) }

// TermStats implements hooks.Controller.
func (t *Table[X]) TermStats(id uint64) hooks.TermStats {
	i, ok := t.index(id)
	if !ok {
		return hooks.TermStats{}
	}
	t.Settle(t.live[i])
	return t.live[i].Pull()
}
