package simclock

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp events fired out of order: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(time.Second, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	ids := make([]EventID, 0, 5)
	for i := 0; i < 5; i++ {
		i := i
		ids = append(ids, e.Schedule(time.Duration(i+1)*time.Second, func() { got = append(got, i) }))
	}
	e.Cancel(ids[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(got) != 2 {
		t.Fatalf("fired %d events, want 2 (inclusive horizon)", len(got))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Len() != 1 {
		t.Fatalf("pending = %d, want 1", e.Len())
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", e.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(0, func() {})
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(time.Second, func() {
		got = append(got, "outer")
		e.Schedule(time.Second, func() { got = append(got, "inner") })
	})
	e.RunUntil(5 * time.Second)
	if len(got) != 2 || got[0] != "outer" || got[1] != "inner" {
		t.Fatalf("got %v", got)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	stop := e.Ticker(time.Second, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(3500 * time.Millisecond)
	stop()
	e.RunUntil(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Ticker(time.Second, func() {
		n++
		if n == 2 {
			stop()
		}
	})
	e.RunUntil(10 * time.Second)
	if n != 2 {
		t.Fatalf("ticker fired %d times after self-stop, want 2", n)
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	e := NewEngine()
	stop := e.Ticker(time.Second, func() {})
	stop()
	stop() // must not panic
	e.RunUntil(3 * time.Second)
}

// TestCancelFiredIDAfterSlotReuse is the generation check: once an event
// has fired, its slot is recycled for the next scheduled event, and a
// Cancel with the stale id must not touch the newcomer.
func TestCancelFiredIDAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	idA := e.Schedule(time.Second, func() {})
	e.Run() // A fires; its slot goes back on the free list
	fired := false
	idB := e.Schedule(time.Second, func() { fired = true }) // reuses A's slot
	if idA == idB {
		t.Fatalf("recycled slot reissued the same EventID %#x", idA)
	}
	if e.Cancel(idA) {
		t.Fatal("Cancel of an already-fired id returned true")
	}
	if e.Len() != 1 {
		t.Fatalf("stale Cancel removed the reusing event: Len = %d, want 1", e.Len())
	}
	e.Run()
	if !fired {
		t.Fatal("event in the recycled slot never fired")
	}
}

// TestCancelOwnIDInsideCallback: by the time fn runs, the event is no
// longer pending, so cancelling its own id from inside fn is a no-op even
// though the slot may already hold a replacement.
func TestCancelOwnIDInsideCallback(t *testing.T) {
	e := NewEngine()
	var id EventID
	replacementFired := false
	id = e.Schedule(time.Second, func() {
		// The firing slot was released before fn ran, so this schedule may
		// reuse it for the replacement...
		e.Schedule(time.Second, func() { replacementFired = true })
		// ...and the stale self-cancel must not evict the replacement.
		if e.Cancel(id) {
			t.Error("Cancel of the firing event's own id returned true")
		}
	})
	e.Run()
	if !replacementFired {
		t.Fatal("self-cancel evicted the replacement event from the recycled slot")
	}
}

// TestTickerSelfStopReleasesSlot: a ticker whose fn stops itself mid-tick
// must not be rescheduled, its stop must stay idempotent, and its slot must
// become reusable.
func TestTickerSelfStopReleasesSlot(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Ticker(time.Second, func() {
		n++
		stop()
		stop() // idempotent even inside the tick being cancelled
	})
	e.RunUntil(10 * time.Second)
	if n != 1 {
		t.Fatalf("self-stopped ticker fired %d times, want 1", n)
	}
	if e.Len() != 0 {
		t.Fatalf("self-stopped ticker left %d pending events", e.Len())
	}
	stop() // and idempotent afterwards
	fired := false
	e.Schedule(time.Second, func() { fired = true }) // may reuse the ticker's slot
	e.Run()
	if !fired {
		t.Fatal("event scheduled after ticker self-stop never fired")
	}
}

// TestTickerSelfStopAfterSlotsGrowInsideCallback: the tick callback
// schedules enough new events to force the engine's slots slice to
// reallocate while the ticker's own slot is firing, then stops itself.
// The stop must land on the live slot, not a stale copy in the old
// backing array, or the ticker keeps firing forever.
func TestTickerSelfStopAfterSlotsGrowInsideCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Ticker(time.Second, func() {
		n++
		for i := 0; i < 64; i++ {
			e.Schedule(time.Hour, func() {})
		}
		stop()
	})
	e.RunUntil(10 * time.Second)
	if n != 1 {
		t.Fatalf("ticker fired %d times after self-stop, want 1", n)
	}
}

// TestTickerStopAfterSlotsGrowInsideCallback: same reallocation hazard,
// but the stop comes later from outside the callback. The in-place
// reschedule after each tick must update the live slot's state, or the
// eventual stop() reports success while leaving the heap entry behind.
func TestTickerStopAfterSlotsGrowInsideCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	stop := e.Ticker(time.Second, func() {
		n++
		for i := 0; i < 64; i++ {
			e.Schedule(time.Hour, func() {})
		}
	})
	e.RunUntil(3500 * time.Millisecond)
	if n != 3 {
		t.Fatalf("ticker fired %d times before stop, want 3", n)
	}
	stop()
	e.RunUntil(20 * time.Second)
	if n != 3 {
		t.Fatalf("ticker fired %d more times after stop", n-3)
	}
}

// TestScheduleAtExactHorizon: events scheduled exactly at the RunUntil
// horizon fire (the boundary is inclusive), including an event scheduled
// for the horizon instant from inside another horizon-instant callback.
func TestScheduleAtExactHorizon(t *testing.T) {
	e := NewEngine()
	var got []string
	e.ScheduleAt(2*time.Second, func() {
		got = append(got, "at-horizon")
		e.ScheduleAt(2*time.Second, func() { got = append(got, "nested-at-horizon") })
	})
	e.ScheduleAt(2*time.Second+1, func() { got = append(got, "past-horizon") })
	e.RunUntil(2 * time.Second)
	if len(got) != 2 || got[0] != "at-horizon" || got[1] != "nested-at-horizon" {
		t.Fatalf("horizon-instant events = %v, want [at-horizon nested-at-horizon]", got)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Len() != 1 {
		t.Fatalf("pending = %d, want the strictly-later event to survive", e.Len())
	}
}

// TestTickerRescheduleOrdering: the in-place reschedule must order the next
// tick after events scheduled by fn for the same instant, exactly as the
// old fn-then-Schedule closure chain did.
func TestTickerRescheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Ticker(time.Second, func() {
		if e.Now() == time.Second {
			e.ScheduleAt(2*time.Second, func() { got = append(got, "scheduled-by-tick1") })
		}
		got = append(got, "tick")
	})
	e.RunUntil(2 * time.Second)
	want := []string{"tick", "scheduled-by-tick1", "tick"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on an empty queue returned true")
	}
}

// TestPropertyFiringOrderMatchesSort checks, for arbitrary delay sets, that
// events fire in non-decreasing timestamp order and that every scheduled
// event fires exactly once.
func TestPropertyFiringOrderMatchesSort(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := NewEngine()
		var fired []time.Duration
		for _, d := range delaysRaw {
			d := time.Duration(d) * time.Millisecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		want := make([]time.Duration, len(delaysRaw))
		for i, d := range delaysRaw {
			want[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCancelNeverFires cancels a random subset and checks only the
// survivors fire.
func TestPropertyCancelNeverFires(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%64) + 1
		firedBy := make(map[int]bool)
		ids := make([]EventID, total)
		for i := 0; i < total; i++ {
			i := i
			ids[i] = e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() { firedBy[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < total; i++ {
			if cancelled[i] == firedBy[i] {
				return false // cancelled ⟺ did not fire
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonicAcrossManyEvents(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(42))
	last := Time(0)
	ok := true
	for i := 0; i < 1000; i++ {
		e.Schedule(time.Duration(rng.Intn(10000))*time.Millisecond, func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		})
	}
	e.Run()
	if !ok {
		t.Fatal("clock moved backwards")
	}
}

// logger is a Handler that logs each firing's argument.
type logger struct {
	e   *Engine
	got []string
}

func (l *logger) Fire(arg uint64) { l.got = append(l.got, fmt.Sprintf("h%d@%v", arg, l.e.Now())) }

func (l *logger) fn(name string) func() {
	return func() { l.got = append(l.got, fmt.Sprintf("%s@%v", name, l.e.Now())) }
}

// TestHandlerAndFuncEventsShareOneOrder: handler events and closure events
// are one queue, so at one instant they fire in scheduling order, whichever
// door each came through, and each handler firing gets its own argument.
func TestHandlerAndFuncEventsShareOneOrder(t *testing.T) {
	e := NewEngine()
	l := &logger{e: e}
	e.ScheduleHandler(time.Second, l, 1)
	e.Schedule(time.Second, l.fn("f2"))
	e.ScheduleAt(time.Second, l.fn("f3"))
	e.ScheduleHandler(time.Second, l, 4)
	e.ScheduleHandler(-time.Second, l, 0) // clamped to now, first to fire
	e.Cancel(e.ScheduleHandler(time.Second, l, 99))
	e.Run()
	want := []string{"h0@0s", "h1@1s", "f2@1s", "f3@1s", "h4@1s"}
	if !slices.Equal(l.got, want) {
		t.Fatalf("fired %v, want %v", l.got, want)
	}
}

// TestTickerKeepsItsOrder: ticks, the closure and handler events that share
// their instants, and the events a tick schedules fire in the order the
// engine gave them before events carried a handler; the list below is that
// engine's, with each handler event a closure there.
func TestTickerKeepsItsOrder(t *testing.T) {
	e := NewEngine()
	l := &logger{e: e}
	e.ScheduleHandler(10*time.Millisecond, l, 1) // before the ticker's first tick
	var stop func()
	ticks := 0
	stop = e.Ticker(10*time.Millisecond, func() {
		ticks++
		l.fn("tick")()
		e.ScheduleHandler(10*time.Millisecond, l, uint64(10+ticks)) // ties with the next tick
		if ticks == 3 {
			stop()
		}
	})
	e.Schedule(10*time.Millisecond, l.fn("f2"))  // after it
	e.ScheduleHandler(20*time.Millisecond, l, 3) // before the second tick
	e.RunUntil(50 * time.Millisecond)
	want := []string{
		"h1@10ms", "tick@10ms", "f2@10ms",
		"h3@20ms", "h11@20ms", "tick@20ms",
		"h12@30ms", "tick@30ms",
		"h13@40ms",
	}
	if !slices.Equal(l.got, want) {
		t.Fatalf("fired %v, want %v", l.got, want)
	}
}
