package simclock

import (
	"testing"
	"time"
	"unsafe"
)

// kernels is the package's allocation contract, stated once: each row is one
// steady-state operation of the event kernel, and none may touch the heap.
// BenchmarkEngine/<name> loops the op for timing; TestKernelAllocs holds the
// zero in tier-1 over the very same closure, so the two cannot drift apart.
var kernels = []struct {
	name  string
	setup func() (op func())
}{
	{"Schedule", scheduleOp(0)},
	{"ScheduleShort", scheduleOp(6)},
	{"ScheduleDeep", scheduleOp(1024)},
	{"ScheduleHandler", handlerOp(6)},
	{"ScheduleHandlerDeep", handlerOp(1024)},
	{"Cancel", cancelOp},
	{"Rearm", rearmOp},
	{"Ticker", tickerOp},
}

func TestKernelAllocs(t *testing.T) {
	for _, k := range kernels {
		got := testing.AllocsPerRun(1000, k.setup())
		t.Logf("Engine %s: %v allocs/op", k.name, got)
		if got != 0 {
			t.Errorf("Engine %s: %v allocs/op, pinned at 0", k.name, got)
		}
	}
}

// TestEventSlotSize pins what each pending event keeps in the engine beside
// its 24-byte queue entry: a daemon shard holds one per live lease.
func TestEventSlotSize(t *testing.T) {
	size := unsafe.Sizeof(slot{})
	t.Logf("an event slot is %d B", size)
	if size > 32 {
		t.Errorf("an event slot is %d B, pinned at ≤ 32: what grew it?", size)
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			op := k.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// scheduleOp is the schedule+fire round trip, the single hottest path in
// every simulation: one op is one Schedule and the Step that fires it. With
// pending > 0 a standing population of later events is queued first: 6 is a
// simulated device's mean depth, kept as a sorted run; 1 024 is a daemon
// shard's, past maxRun, so the queue is a heap.
func scheduleOp(pending int) func() func() {
	return func() func() {
		e := NewEngine()
		fn := func() {}
		for i := 0; i < pending; i++ {
			e.Schedule(time.Duration(i+1)*time.Hour, fn)
		}
		return func() {
			e.Schedule(time.Millisecond, fn)
			e.Step()
		}
	}
}

// counter is a Handler serving many events, as lease.Manager serves its
// leases': the argument says which. Like the manager it is a pointer, which
// an interface holds without allocating.
type counter [8]int

func (c *counter) Fire(arg uint64) { c[arg%uint64(len(c))]++ }

// handlerOp is scheduleOp for a handler event, the door lease.Manager's term
// checks take: the handler and its argument go into the slot, and no
// closure is bound.
func handlerOp(pending int) func() func() {
	return func() func() {
		e := NewEngine()
		c := new(counter)
		for i := 0; i < pending; i++ {
			e.ScheduleHandler(time.Duration(i+1)*time.Hour, c, uint64(i))
		}
		var arg uint64
		return func() {
			arg++
			e.ScheduleHandler(time.Millisecond, c, arg)
			e.Step()
		}
	}
}

// cancelOp is the schedule+cancel round trip taken by every timer that is
// reset before it fires (wakelock timeouts, lease term checks, radio tails).
func cancelOp() func() {
	e := NewEngine()
	fn := func() {}
	return func() {
		e.Cancel(e.Schedule(time.Millisecond, fn))
	}
}

// rearmOp is lease.Manager's renew path on a daemon shard: one far-future
// term check cancelled and scheduled again among 2 000 standing ones, so the
// queue is a heap.
func rearmOp() func() {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 2000; i++ {
		e.Schedule(time.Duration(i+1)*time.Second, fn)
	}
	id := e.Schedule(time.Hour, fn)
	return func() {
		e.Cancel(id)
		id = e.Schedule(time.Hour, fn)
	}
}

// tickerOp is one periodic tick end to end: the 100 ms power samplers and
// per-second stat feeds ride this path millions of times in a long
// battery-drain run.
func tickerOp() func() {
	e := NewEngine()
	n := 0
	e.Ticker(time.Millisecond, func() { n++ })
	return func() {
		before := n
		e.RunUntil(e.Now() + time.Millisecond)
		if n != before+1 {
			panic("ticker did not fire exactly once per period")
		}
	}
}
