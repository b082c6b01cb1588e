package power

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// kernels is the package's allocation contract, stated once: each row is one
// steady-state meter operation on a device with 32 resident owners, and none
// may touch the heap. BenchmarkMeter/<name> loops the op for timing;
// TestKernelAllocs holds the zero in tier-1 over the very same closure, so
// the two cannot drift apart. (The fourth kernel, DrawHandle.Set, is held by
// TestHandleSetZeroAllocs in handle_test.go.)
var kernels = []struct {
	name  string
	setup func() (op func())
}{
	{"Set", setOp},
	{"EnergyOf", energyOfOp},
	{"Add", addOp},
}

func TestKernelAllocs(t *testing.T) {
	for _, k := range kernels {
		if got := testing.AllocsPerRun(1000, k.setup()); got != 0 {
			t.Errorf("Meter %s: %v allocs/op, pinned at 0", k.name, got)
		}
	}
}

func BenchmarkMeter(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) { benchOp(b, k.setup()) })
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// meterWithLoad builds a meter with owners 0..nOwners-1 each holding one
// CPU draw, approximating a device with nOwners installed apps.
func meterWithLoad(e *simclock.Engine, nOwners int) *Meter {
	m := NewMeter(e)
	for uid := 0; uid < nOwners; uid++ {
		m.Set(UID(uid), CPU, "base", 0.05)
	}
	return m
}

// toggle advances the clock one millisecond and hands set a draw that
// alternates between on and off, so every call is a real change.
func toggle(e *simclock.Engine, set func(w float64)) func() {
	on := false
	return func() {
		e.RunUntil(e.Now() + time.Millisecond)
		if on = !on; on {
			set(0.6)
		} else {
			set(0)
		}
	}
}

// setOp is one draw change — the path every service rides on
// acquire/release. Before the dense-array meter this integrated every owner
// per call.
func setOp() func() {
	e := simclock.NewEngine()
	m := meterWithLoad(e, 32)
	return toggle(e, func(w float64) { m.Set(5, GPS, "fix", w) })
}

// energyOfOp is the per-owner energy query used by every utility
// computation and experiment readout.
func energyOfOp() func() {
	e := simclock.NewEngine()
	m := meterWithLoad(e, 32)
	return func() {
		e.RunUntil(e.Now() + time.Millisecond)
		_ = m.EnergyOfJ(5)
	}
}

// addOp is one delta on a slot several draws share — appfw's per-process
// work slot, which every work item's start, pause and completion moves by
// its own change.
func addOp() func() {
	e := simclock.NewEngine()
	h := meterWithLoad(e, 32).Handle(5, CPU)
	held := 0.0
	return toggle(e, func(w float64) {
		h.Add(w - held)
		held = w
	})
}

// BenchmarkDrawHandleSet measures the pre-resolved draw update the app
// framework performs on every work-item pause/resume: no tag scan, no map,
// a pure indexed store plus three accumulator advances.
func BenchmarkDrawHandleSet(b *testing.B) {
	e := simclock.NewEngine()
	h := meterWithLoad(e, 32).Handle(5, CPU)
	benchOp(b, toggle(e, h.Set))
}
