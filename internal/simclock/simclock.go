// Package simclock provides the discrete-event simulation kernel that every
// other subsystem in this repository is built on.
//
// The kernel models virtual time as a time.Duration measured from the start
// of the simulation. Work is expressed as events: a Handler and its argument,
// or a plain closure, scheduled to fire at a particular virtual instant.
// Events fire in timestamp order; events with equal timestamps fire in
// scheduling order, which makes every run of a simulation fully
// deterministic for a fixed input.
//
// Internally the engine is allocation-free on the steady state: pending
// events live in a slice of value slots addressed by index, scheduling
// reuses slots through a free list, and the queue is one slice of (at, seq)
// value structs. While it is short — a simulated device has a handful of
// events pending — the slice is kept sorted latest-first, so the next event
// is popped off the end without a compare. Once it outgrows maxRun — a
// daemon shard holds one term check per live lease — it becomes a binary
// min-heap until Reset. EventIDs carry a per-slot generation so a stale id
// can never be confused with the slot's current occupant.
package simclock

import (
	"fmt"
	"time"
)

// Time is a virtual instant, measured as the duration elapsed since the
// simulation started.
type Time = time.Duration

// EventID identifies a scheduled event so that it can be cancelled.
// The zero EventID is never issued and is safe to use as a sentinel.
//
// An EventID packs the slot index (low 32 bits, offset by one so the zero
// id stays invalid) and the slot's generation at scheduling time (high 32
// bits). Slots are recycled; the generation is bumped on every release, so
// an id held across its event's firing simply stops matching.
//
// The generation is 32 bits wide, so a stale id aliases its slot's current
// occupant only after the same slot has been reused 2^32 times while the id
// is still retained. Callers must not hold EventIDs across ~4 billion
// reuses of a single slot; no realistic simulation approaches that.
type EventID uint64

func makeID(idx int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(uint32(idx)+1))
}

func splitID(id EventID) (idx int32, gen uint32) {
	return int32(uint32(id) - 1), uint32(id >> 32)
}

// Handler is an event's callback as a value: Fire runs with the argument the
// event was scheduled with. One handler can serve many events, telling them
// apart by the argument, so scheduling one binds no closure.
type Handler interface {
	Fire(arg uint64)
}

// funcHandler is a plain callback as a Handler, and tickFunc a Ticker's. A
// func value is one pointer, so converting it to an interface allocates
// nothing.
type (
	funcHandler func()
	tickFunc    func()
)

func (f funcHandler) Fire(uint64) { f() }
func (f tickFunc) Fire(uint64)    { f() }

// slot is the storage for one event, 32 bytes. Slots are value structs owned
// by the engine's slots slice and recycled through the free list; a closure
// the caller schedules is its only allocation, made at the caller, not here.
// A slot is free while h is nil; a queued one's pos is its index in the
// queue in heap form, and 0 in run form; a Ticker's slot, popped to run its
// callback, is firing, or stopped if cancelled from inside it.
type slot struct {
	h   Handler
	arg uint64 // h's argument; a tickFunc's period
	gen uint32 // bumped on release; stale EventIDs stop matching
	pos int32
}

// The pos of a Ticker's slot that is out of the queue running its callback.
const (
	firing  = -1
	stopped = -2
)

// item is one entry of the queue. The ordering key is held inline so
// placing and sifting touch contiguous memory and never chase the slot;
// idx links back to the slot for firing.
type item struct {
	at  Time
	seq uint64 // tie-breaker: scheduling order at equal times
	idx int32
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine. Engine is not safe for concurrent use: simulations are
// single-threaded by design so that runs are reproducible.
type Engine struct {
	now     Time
	queue   []item // sorted latest-first, or a min-heap once isHeap
	isHeap  bool
	slots   []slot
	free    []int32 // released slot indices awaiting reuse
	nextSeq uint64
	running bool
}

// NewEngine returns an engine positioned at virtual time zero with an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reset returns the engine to its initial state — virtual time zero, empty
// queue back in run form, sequence counter restarted — while keeping the
// queue, slot, and free-list capacity so a recycled engine schedules without
// reallocating. Slot generations restart at zero too: a reset engine is
// indistinguishable from a fresh NewEngine() apart from retained capacity,
// which is what makes fresh-vs-reused simulation runs byte-identical.
// EventIDs issued before the reset must not be used afterwards.
func (e *Engine) Reset() {
	if e.running {
		panic("simclock: Reset called from inside RunUntil")
	}
	for i := range e.slots {
		e.slots[i] = slot{}
	}
	e.queue = e.queue[:0]
	e.isHeap = false
	e.slots = e.slots[:0]
	e.free = e.free[:0]
	e.now = 0
	e.nextSeq = 0
}

// Next reports the timestamp of the earliest pending event, or false when
// the queue is empty. A wall-clock driver arms its one wake-up from it.
func (e *Engine) Next() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[e.head()].at, true
}

// Len reports the number of pending events.
func (e *Engine) Len() int { return len(e.queue) }

// head is the queue position of the earliest pending event; the queue is
// non-empty.
func (e *Engine) head() int {
	if e.isHeap {
		return 0
	}
	return len(e.queue) - 1
}

// alloc takes a slot index from the free list, or grows the slots slice.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list, bumping its generation so any
// outstanding EventID for it stops matching, and dropping the handler so
// the GC can reclaim captured state.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.h = nil
	s.gen++
	e.free = append(e.free, idx)
}

// maxRun is the longest queue kept as a sorted run. Placing an event in the
// run moves every earlier one, which beats a heap's data-dependent sifts at
// a device's few pending events but not at a daemon's thousands; at random
// delays the two cost alike between 56 and 80 pending.
const maxRun = 64

func less(a, b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues it. Every new entry carries the engine's newest seq, so in the
// run it goes just past the last entry that fires at or before it.
func (e *Engine) push(it item) {
	n := len(e.queue)
	if n == maxRun && !e.isHeap {
		e.toHeap()
	}
	e.queue = append(e.queue, it)
	if e.isHeap {
		e.siftUp(n)
		return
	}
	q := e.queue
	for n > 0 && q[n-1].at <= it.at {
		q[n] = q[n-1]
		n--
	}
	q[n] = it
}

// toHeap turns the run into a min-heap: reversed, a latest-first run is
// sorted earliest-first, which is already heap-ordered.
func (e *Engine) toHeap() {
	q := e.queue
	for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
		q[i], q[j] = q[j], q[i]
	}
	for i := range q {
		e.slots[q[i].idx].pos = int32(i)
	}
	e.isHeap = true
}

// remove deletes the queued entry for slot idx, keeping the queue ordered.
func (e *Engine) remove(idx int32) {
	if !e.isHeap {
		q := e.queue
		for i := len(q) - 1; ; i-- {
			if q[i].idx == idx {
				e.queue = append(q[:i], q[i+1:]...)
				return
			}
		}
	}
	i := int(e.slots[idx].pos)
	n := len(e.queue) - 1
	if i != n {
		e.queue[i] = e.queue[n]
		e.queue = e.queue[:n]
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	} else {
		e.queue = e.queue[:n]
	}
}

// pop removes and returns the earliest entry. The caller guarantees the
// queue is non-empty.
func (e *Engine) pop() item {
	n := len(e.queue) - 1
	if !e.isHeap {
		it := e.queue[n]
		e.queue = e.queue[:n]
		return it
	}
	top := e.queue[0]
	e.queue[0] = e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	it := e.queue[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(it, e.queue[parent]) {
			break
		}
		e.queue[i] = e.queue[parent]
		e.slots[e.queue[i].idx].pos = int32(i)
		i = parent
	}
	e.queue[i] = it
	e.slots[it.idx].pos = int32(i)
}

func (e *Engine) siftDown(i int) bool {
	it := e.queue[i]
	start, n := i, len(e.queue)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && less(e.queue[right], e.queue[left]) {
			child = right
		}
		if !less(e.queue[child], it) {
			break
		}
		e.queue[i] = e.queue[child]
		e.slots[e.queue[i].idx].pos = int32(i)
		i = child
	}
	e.queue[i] = it
	e.slots[it.idx].pos = int32(i)
	return i > start
}

// Schedule arranges for fn to run after delay d: ScheduleHandler with fn as
// the handler. A negative d is treated as zero: the event fires at the
// current instant, after any events already queued for that instant.
// Schedule returns an EventID usable with Cancel.
func (e *Engine) Schedule(d time.Duration, fn func()) EventID {
	if fn == nil {
		panic("simclock: Schedule called with nil fn")
	}
	return e.schedule(e.now+max(d, 0), funcHandler(fn), 0)
}

// ScheduleHandler arranges for h.Fire(arg) to run after delay d, as Schedule
// does for a closure.
func (e *Engine) ScheduleHandler(d time.Duration, h Handler, arg uint64) EventID {
	if h == nil {
		panic("simclock: ScheduleHandler called with nil handler")
	}
	return e.schedule(e.now+max(d, 0), h, arg)
}

// ScheduleAt arranges for fn to run at the absolute virtual instant at.
// Scheduling in the past is an error that panics: it would break causality
// and silently reorder history.
func (e *Engine) ScheduleAt(at Time, fn func()) EventID {
	if fn == nil {
		panic("simclock: ScheduleAt called with nil fn")
	}
	return e.schedule(at, funcHandler(fn), 0)
}

// schedule fills a fresh slot and queues it at at with the engine's next seq.
func (e *Engine) schedule(at Time, h Handler, arg uint64) EventID {
	if at < e.now {
		panic(fmt.Sprintf("simclock: ScheduleAt(%v) is in the past (now %v)", at, e.now))
	}
	e.nextSeq++
	idx := e.alloc()
	s := &e.slots[idx]
	s.h, s.arg, s.pos = h, arg, 0
	e.push(item{at: at, seq: e.nextSeq, idx: idx})
	return makeID(idx, s.gen)
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-fired or already-cancelled event is a
// harmless no-op returning false. Slot generations make this safe even
// after the event's storage has been recycled for a newer event: the stale
// id no longer matches and Cancel leaves the newcomer alone.
func (e *Engine) Cancel(id EventID) bool {
	idx, gen := splitID(id)
	if idx < 0 || int(idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[idx]
	if s.gen != gen || s.h == nil {
		return false
	}
	switch s.pos {
	case firing:
		// A ticker cancelled from inside its own callback: it is not in
		// the queue right now, so just tell the fire loop not to
		// reschedule it.
		s.pos = stopped
		return true
	case stopped:
		return false
	}
	e.remove(idx)
	e.release(idx)
	return true
}

// fire pops the earliest item, advances the clock, and runs its callback.
// One-shot slots are released before the callback runs, so the callback can
// immediately reuse the slot for new events and a Cancel of the firing id
// from inside the callback is a no-op — the same semantics the map-based
// kernel had. Periodic slots are rescheduled in place afterwards.
func (e *Engine) fire() {
	it := e.pop()
	s := &e.slots[it.idx]
	e.now = it.at
	switch h := s.h.(type) {
	case tickFunc:
		s.pos = firing
		h()
	default:
		arg := s.arg
		e.release(it.idx)
		h.Fire(arg)
		return
	}
	// The callback may have scheduled events and grown e.slots, moving the
	// backing array out from under s — re-fetch the pointer before touching
	// the slot again.
	s = &e.slots[it.idx]
	if s.pos == stopped {
		e.release(it.idx)
		return
	}
	// Reschedule in place: same slot, same generation (so the ticker's
	// stop function keeps working), fresh seq — exactly the ordering a
	// hand-rolled "fn then Schedule(period, tick)" chain would produce.
	e.nextSeq++
	s.pos = 0
	e.push(item{at: it.at + Time(s.arg), seq: e.nextSeq, idx: it.idx})
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false if the queue was empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire()
	return true
}

// RunUntil fires events in order until the queue is exhausted or the next
// event lies strictly after the horizon, then advances the clock to horizon.
// Events scheduled exactly at the horizon do fire.
func (e *Engine) RunUntil(horizon Time) {
	if horizon < e.now {
		panic(fmt.Sprintf("simclock: RunUntil(%v) is in the past (now %v)", horizon, e.now))
	}
	if e.running {
		panic("simclock: RunUntil re-entered from an event callback")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[e.head()].at <= horizon {
		e.fire()
	}
	e.now = horizon
}

// Run fires events until the queue is empty. Use with care: a self-renewing
// periodic event makes Run diverge; prefer RunUntil for simulations.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker invokes fn every period until cancelled via the returned stop
// function. The first invocation happens one period from now. fn observes
// the tick time via the engine clock.
//
// Tickers are periodic slots inside the engine: each tick reschedules the
// same slot in place rather than chaining a fresh event per tick, so the
// steady-state cost is one queue pop + push with no allocation.
func (e *Engine) Ticker(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("simclock: Ticker period must be positive")
	}
	if fn == nil {
		panic("simclock: Ticker called with nil fn")
	}
	id := e.schedule(e.now+period, tickFunc(fn), uint64(period))
	return func() { e.Cancel(id) }
}
