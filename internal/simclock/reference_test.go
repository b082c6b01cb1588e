package simclock

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// FuzzEngineMatchesReference runs one random program of Schedule,
// ScheduleHandler, ScheduleAt, Cancel, Ticker, stop, Step, RunUntil and Reset
// calls against
// the engine and against refEngine, a slice re-sorted by (at, seq) on every
// call, and requires the same firings, Cancel results, Now, Len and Next
// after every operation. A program is a list of 4-byte ops (opSchedule…);
// callbacks cancel their own id, other ids (fired and stale ones too) and
// stop their own ticker, so the queue is edited from inside a firing as well.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, p := range seedPrograms() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		// Bounded programs keep the reference's re-sorts cheap enough to fuzz.
		engine := &driver{e: NewEngine()}
		ref := &driver{e: &refEngine{}}
		for pc := 0; pc+4 <= min(len(prog), 512) && len(engine.log) < 10_000; pc += 4 {
			op := prog[pc : pc+4]
			from := len(engine.log)
			engine.do(op)
			ref.do(op)
			if !slices.Equal(engine.log[from:], ref.log[from:]) {
				t.Fatalf("op %d %v: engine logged\n%v\nreference logged\n%v", pc/4, op, engine.log[from:], ref.log[from:])
			}
			et, eok := engine.e.Next()
			rt, rok := ref.e.Next()
			if engine.e.Now() != ref.e.Now() || engine.e.Len() != ref.e.Len() || et != rt || eok != rok {
				t.Fatalf("op %d %v: engine Now %v Len %d Next %v,%v; reference Now %v Len %d Next %v,%v",
					pc/4, op, engine.e.Now(), engine.e.Len(), et, eok, ref.e.Now(), ref.e.Len(), rt, rok)
			}
		}
	})
}

// TestReferenceSeedsCrossTheHeap keeps the seed corpus honest: some seed
// must take the engine past maxRun into heap form and some Reset must bring
// it back to a run that then schedules again.
func TestReferenceSeedsCrossTheHeap(t *testing.T) {
	heaped, backToRun := false, false
	for _, p := range seedPrograms() {
		d := &driver{e: NewEngine()}
		e := d.e.(*Engine)
		wasHeap := false
		for pc := 0; pc+4 <= len(p); pc += 4 {
			d.do(p[pc : pc+4])
			heaped = heaped || e.isHeap
			if wasHeap && !e.isHeap && e.Len() > 0 {
				backToRun = true
			}
			wasHeap = wasHeap || e.isHeap
		}
	}
	if !heaped || !backToRun {
		t.Fatalf("seed corpus: reached heap form %v, scheduled in run form after a heap %v; want both", heaped, backToRun)
	}
}

// api is what the driver needs of an engine; *Engine and *refEngine have it.
type api interface {
	Now() Time
	Len() int
	Next() (Time, bool)
	Schedule(time.Duration, func()) EventID
	ScheduleHandler(time.Duration, Handler, uint64) EventID
	ScheduleAt(Time, func()) EventID
	Cancel(EventID) bool
	Ticker(time.Duration, func()) func()
	Step() bool
	RunUntil(Time)
	Reset()
}

// The op kinds. Each op is {kind, a, b, c}; delay(x) is 0–30 ms, so equal
// instants are common.
const (
	opSchedule   = iota // Schedule(delay(a), action b with arg c); a%32 == 31 is a negative delay
	opScheduleAt        // ScheduleAt(Now()+delay(a), action b with arg c)
	opCancel            // Cancel(ids[a]), any id issued since the last Reset
	opTicker            // Ticker(period 1+a%8 ms), stopping itself at tick b%4 (0: never), child at delay(c) when b&4; at most maxTickers
	opStop              // stop tickers[a]
	opStep              // Step()
	opRunUntil          // RunUntil(Now()+delay(a))
	opReset             // Reset()
	opBurst             // Schedule maxRun+a%8 events at spread delays, action b, odd ones through ScheduleHandler
	opHandler           // ScheduleHandler(delay(a), the driver, the event's label), action b with arg c; a%32 == 31 is a negative delay
	numOps
)

// One-shot actions, run by the event's callback after it logs its firing.
const (
	actNone        = iota
	actCancelSelf  // Cancel its own id: a fired one-shot is no longer pending
	actChild       // Schedule a plain child at delay(arg)
	actCancelOther // Cancel ids[arg]
	numActs
)

// maxTickers bounds the tickers made since the last Reset; each may tick,
// and schedule a child, up to 30 times in one RunUntil.
const maxTickers = 16

func delay(x byte) time.Duration { return time.Duration(x%31) * time.Millisecond }

type entry struct {
	kind  byte // 'f' fire, 't' tick, 'c' Cancel result, 's' Step result
	label int
	now   Time
	ok    bool
}

// driver applies ops to one engine and logs what happens. Labels index ids
// in scheduling order; both sides agree on them as long as they fire alike.
// The driver is also the Handler of the events it schedules through
// ScheduleHandler, with their label as the argument.
type driver struct {
	e     api
	ids   []EventID // one-shot ids by label, since the last Reset
	fns   []func()  // their callbacks, by label
	stops []func()  // ticker stops, since the last Reset
	log   []entry
}

func (d *driver) Fire(label uint64) { d.fns[label]() }

// viaHandler issues an event at delay dl through ScheduleHandler.
func (d *driver) viaHandler(dl time.Duration) func(int) EventID {
	return func(label int) EventID { return d.e.ScheduleHandler(dl, d, uint64(label)) }
}

// viaFunc issues an event through a closure-taking door.
func (d *driver) viaFunc(door func(func()) EventID) func(int) EventID {
	return func(label int) EventID { return door(d.fns[label]) }
}

func (d *driver) do(op []byte) {
	kind, a, b, c := op[0]%numOps, op[1], op[2], op[3]
	switch kind {
	case opSchedule:
		dl := signedDelay(a)
		d.schedule(d.viaFunc(func(fn func()) EventID { return d.e.Schedule(dl, fn) }), b, c)
	case opHandler:
		d.schedule(d.viaHandler(signedDelay(a)), b, c)
	case opScheduleAt:
		at := d.e.Now() + delay(a)
		d.schedule(d.viaFunc(func(fn func()) EventID { return d.e.ScheduleAt(at, fn) }), b, c)
	case opCancel:
		d.cancel(int(a))
	case opTicker:
		if len(d.stops) == maxTickers {
			break
		}
		d.ticker(time.Duration(1+a%8)*time.Millisecond, int(b%4), b&4 != 0, delay(c))
	case opStop:
		if len(d.stops) > 0 {
			d.stops[int(a)%len(d.stops)]()
		}
	case opStep:
		d.log = append(d.log, entry{kind: 's', now: d.e.Now(), ok: d.e.Step()})
	case opRunUntil:
		d.e.RunUntil(d.e.Now() + delay(a))
	case opReset:
		d.e.Reset()
		d.ids, d.fns, d.stops = d.ids[:0], d.fns[:0], d.stops[:0]
	case opBurst:
		x := uint32(b) + 1
		for i := 0; i < maxRun+int(a%8); i++ {
			x = x*1103515245 + 12345
			dl := time.Duration(x>>16%200) * time.Millisecond
			issue := d.viaFunc(func(fn func()) EventID { return d.e.Schedule(dl, fn) })
			if i%2 == 1 {
				issue = d.viaHandler(dl)
			}
			d.schedule(issue, b, byte(i))
		}
	}
}

// signedDelay is delay(x), or a negative delay when x%32 == 31.
func signedDelay(x byte) time.Duration {
	if x%32 == 31 {
		return -time.Millisecond
	}
	return delay(x)
}

// schedule issues one one-shot event under the next label.
func (d *driver) schedule(issue func(label int) EventID, act, arg byte) {
	label := len(d.ids)
	d.ids = append(d.ids, 0)
	d.fns = append(d.fns, func() {
		d.log = append(d.log, entry{kind: 'f', label: label, now: d.e.Now()})
		switch act % numActs {
		case actCancelSelf:
			d.cancel(label)
		case actChild:
			d.schedule(d.viaHandler(delay(arg)), actNone, 0)
		case actCancelOther:
			d.cancel(int(arg))
		}
	})
	d.ids[label] = issue(label)
}

func (d *driver) cancel(k int) {
	if len(d.ids) == 0 {
		d.log = append(d.log, entry{kind: 'c', label: -1, ok: d.e.Cancel(0)})
		return
	}
	label := k % len(d.ids)
	d.log = append(d.log, entry{kind: 'c', label: label, ok: d.e.Cancel(d.ids[label])})
}

func (d *driver) ticker(period time.Duration, stopAt int, child bool, childDelay time.Duration) {
	n, ticks := len(d.stops), 0
	d.stops = append(d.stops, nil)
	d.stops[n] = d.e.Ticker(period, func() {
		ticks++
		d.log = append(d.log, entry{kind: 't', label: n, now: d.e.Now()})
		if ticks == stopAt {
			d.stops[n]()
		}
		if child {
			d.schedule(d.viaFunc(func(fn func()) EventID { return d.e.Schedule(childDelay, fn) }), actNone, 0)
		}
	})
}

// refEngine is the engine's semantics written the obvious way: pending
// events in a slice sorted by (at, seq) before every look, ids never reused,
// a ticker re-queued with a fresh seq after its callback unless it was
// stopped during it.
type refEngine struct {
	now     Time
	seq     uint64
	lastID  EventID
	pending []refEvent
	firing  EventID // the ticker whose callback is running
	stopped bool    // it was stopped during its callback
}

type refEvent struct {
	at, period Time
	seq        uint64
	id         EventID
	fn         func()
}

func (r *refEngine) sort() {
	sort.Slice(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
}

func (r *refEngine) Now() Time { return r.now }
func (r *refEngine) Len() int  { return len(r.pending) }

func (r *refEngine) Next() (Time, bool) {
	if len(r.pending) == 0 {
		return 0, false
	}
	r.sort()
	return r.pending[0].at, true
}

func (r *refEngine) Schedule(d time.Duration, fn func()) EventID {
	return r.ScheduleAt(r.now+max(d, 0), fn)
}

func (r *refEngine) ScheduleHandler(d time.Duration, h Handler, arg uint64) EventID {
	return r.Schedule(d, func() { h.Fire(arg) })
}

func (r *refEngine) ScheduleAt(at Time, fn func()) EventID {
	return r.add(at, 0, fn)
}

func (r *refEngine) add(at, period Time, fn func()) EventID {
	r.seq++
	r.lastID++
	r.pending = append(r.pending, refEvent{at: at, period: period, seq: r.seq, id: r.lastID, fn: fn})
	return r.lastID
}

func (r *refEngine) Cancel(id EventID) bool {
	for i, ev := range r.pending {
		if ev.id == id {
			r.pending = slices.Delete(r.pending, i, i+1)
			return true
		}
	}
	if id != 0 && id == r.firing && !r.stopped {
		r.stopped = true
		return true
	}
	return false
}

func (r *refEngine) Ticker(period time.Duration, fn func()) func() {
	id := r.add(r.now+period, period, fn)
	return func() { r.Cancel(id) }
}

func (r *refEngine) fire() {
	r.sort()
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	if ev.period == 0 {
		ev.fn()
		return
	}
	r.firing, r.stopped = ev.id, false
	ev.fn()
	r.firing = 0
	if !r.stopped {
		r.seq++
		ev.at += ev.period
		ev.seq = r.seq
		r.pending = append(r.pending, ev)
	}
}

func (r *refEngine) Step() bool {
	if len(r.pending) == 0 {
		return false
	}
	r.fire()
	return true
}

func (r *refEngine) RunUntil(h Time) {
	for {
		if t, ok := r.Next(); !ok || t > h {
			break
		}
		r.fire()
	}
	r.now = h
}

func (r *refEngine) Reset() { *r = refEngine{lastID: r.lastID} }

// seedPrograms are the corpus every `go test` replays: plain mixes, tickers
// that stop themselves, stale and fired ids, and bursts that take the engine
// past maxRun into heap form and, through Reset, back to a run.
func seedPrograms() [][]byte {
	cat := func(ops ...[4]byte) []byte {
		var p []byte
		for _, op := range ops {
			p = append(p, op[:]...)
		}
		return p
	}
	return [][]byte{
		// A short mix: ties, a negative delay, a child, cancels of a
		// pending, a fired and the zero id.
		cat([4]byte{opCancel, 0, 0, 0},
			[4]byte{opSchedule, 5, actNone, 0}, [4]byte{opSchedule, 5, actChild, 5},
			[4]byte{opSchedule, 31, actCancelSelf, 0}, [4]byte{opScheduleAt, 2, actCancelOther, 0},
			[4]byte{opSchedule, 9, actNone, 0}, [4]byte{opCancel, 4, 0, 0},
			[4]byte{opStep, 0, 0, 0}, [4]byte{opRunUntil, 30, 0, 0},
			[4]byte{opCancel, 1, 0, 0}, [4]byte{opSchedule, 1, actNone, 0}, [4]byte{opCancel, 0, 0, 0},
			[4]byte{opStep, 0, 0, 0}, [4]byte{opStep, 0, 0, 0}),
		// Tickers: one stops itself on its 2nd tick, one schedules a child
		// at its own period (so they tie with its next tick), one is
		// stopped from outside.
		cat([4]byte{opTicker, 2, 2, 0}, [4]byte{opTicker, 1, 4, 2}, [4]byte{opTicker, 0, 0, 0},
			[4]byte{opSchedule, 3, actCancelOther, 0}, [4]byte{opRunUntil, 7, 0, 0},
			[4]byte{opStop, 2, 0, 0}, [4]byte{opStop, 2, 0, 0}, [4]byte{opRunUntil, 12, 0, 0},
			[4]byte{opStop, 1, 0, 0}, [4]byte{opStep, 0, 0, 0}, [4]byte{opRunUntil, 30, 0, 0}),
		// Into heap form: a burst with children, cancels inside and
		// outside firings, a ticker that stops itself, then Reset back to
		// a run that schedules and fires again.
		cat([4]byte{opBurst, 3, actChild, 0}, [4]byte{opTicker, 3, 3, 0},
			[4]byte{opCancel, 7, 0, 0}, [4]byte{opCancel, 20, 0, 0}, [4]byte{opCancel, 7, 0, 0},
			[4]byte{opStep, 0, 0, 0}, [4]byte{opRunUntil, 25, 0, 0}, [4]byte{opSchedule, 4, actCancelOther, 9},
			[4]byte{opRunUntil, 30, 0, 0}, [4]byte{opReset, 0, 0, 0},
			[4]byte{opSchedule, 3, actNone, 0}, [4]byte{opSchedule, 3, actChild, 0}, [4]byte{opTicker, 1, 0, 0},
			[4]byte{opRunUntil, 6, 0, 0}, [4]byte{opCancel, 0, 0, 0}, [4]byte{opBurst, 7, actCancelOther, 0},
			[4]byte{opRunUntil, 30, 0, 0}, [4]byte{opReset, 0, 0, 0}, [4]byte{opSchedule, 1, actNone, 0},
			[4]byte{opStep, 0, 0, 0}),
		// The handler door beside the closure doors at shared instants: a
		// handler event cancelling another, one with a child, one at a
		// negative delay cancelling itself, a ticker whose child ties with
		// its next tick.
		cat([4]byte{opHandler, 5, actCancelOther, 1}, [4]byte{opSchedule, 5, actNone, 0},
			[4]byte{opHandler, 5, actChild, 5}, [4]byte{opTicker, 4, 6, 5},
			[4]byte{opHandler, 31, actCancelSelf, 0}, [4]byte{opCancel, 0, 0, 0},
			[4]byte{opRunUntil, 12, 0, 0}, [4]byte{opHandler, 0, actNone, 0},
			[4]byte{opStep, 0, 0, 0}, [4]byte{opRunUntil, 30, 0, 0}),
		// Heap form drained by Step and RunUntil, ids reused by new events
		// and cancelled stale, two bursts back to back.
		cat([4]byte{opBurst, 0, actCancelSelf, 0}, [4]byte{opBurst, 5, actNone, 0},
			[4]byte{opRunUntil, 30, 0, 0}, [4]byte{opStep, 0, 0, 0}, [4]byte{opStep, 0, 0, 0},
			[4]byte{opSchedule, 0, actNone, 0}, [4]byte{opCancel, 1, 0, 0}, [4]byte{opCancel, 80, 0, 0},
			[4]byte{opRunUntil, 30, 0, 0}, [4]byte{opRunUntil, 30, 0, 0}, [4]byte{opRunUntil, 30, 0, 0},
			[4]byte{opRunUntil, 30, 0, 0}, [4]byte{opRunUntil, 30, 0, 0}, [4]byte{opRunUntil, 30, 0, 0},
			[4]byte{opRunUntil, 30, 0, 0}, [4]byte{opReset, 0, 0, 0}, [4]byte{opTicker, 0, 1, 0},
			[4]byte{opStep, 0, 0, 0}, [4]byte{opStep, 0, 0, 0}),
	}
}
