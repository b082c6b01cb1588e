package simclock

import (
	"testing"
	"time"
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
	{"Cancel", cancelOp},
	{"Rearm", rearmOp},
	{"Ticker", tickerOp},
}

func TestKernelAllocs(t *testing.T) {
	for _, k := range kernels {
		if got := testing.AllocsPerRun(1000, k.setup()); got != 0 {
			t.Errorf("Engine %s: %v allocs/op, pinned at 0", k.name, got)
		}
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
