package appfw

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/device"
	"repro/internal/power"
)

func TestRunWorkOnDeadProcessIsNoOp(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.Kill()
	called := false
	p.RunWork(time.Second, func() { called = true })
	r.engine.RunUntil(10 * time.Second)
	if called {
		t.Fatal("RunWork on a dead process must not run")
	}
	if r.fw.CPUTimeOf(10) != 0 {
		t.Fatal("dead process accrued CPU time")
	}
}

func TestNetworkRequestOnDeadProcessIsNoOp(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	p.Kill()
	called := false
	p.NetworkRequest(time.Second, func(error) { called = true })
	r.engine.RunUntil(10 * time.Second)
	if called {
		t.Fatal("NetworkRequest on a dead process must not run")
	}
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("dead process draws %v W, want 0", got)
	}
}

// TestKilledWorkNeverCompletesOnReusedSlot is the appfw analogue of
// simclock's stale-slot regression tests: a slot returned to the pool by
// Kill must not deliver the dead item's completion once recycled.
func TestKilledWorkNeverCompletesOnReusedSlot(t *testing.T) {
	r := newRig(nil)
	r.hold(1)
	r.hold(2)
	a := r.fw.NewProcess(1)
	aDone := 0
	a.RunWork(5*time.Second, func() { aDone++ })
	r.engine.RunUntil(2 * time.Second)
	a.Kill()
	slot := r.fw.freeWork
	if slot == nil {
		t.Fatal("Kill must return the work slot to the pool")
	}
	b := r.fw.NewProcess(2)
	bDone := 0
	b.RunWork(3*time.Second, func() { bDone++ })
	if b.workHead != slot {
		t.Fatal("new work did not reuse the pooled slot")
	}
	// Run well past both the killed item's original deadline (7 s from its
	// start) and the reused item's deadline.
	r.engine.RunUntil(time.Minute)
	if aDone != 0 {
		t.Fatalf("killed work completed %d times, want 0", aDone)
	}
	if bDone != 1 {
		t.Fatalf("reused slot completed %d times, want exactly 1", bDone)
	}
}

// TestCompletedSlotReusedCleanly checks that normal completion recycles the
// slot and a follow-up item started from the completion callback itself
// (the common self-rescheduling app pattern) runs on clean state.
func TestCompletedSlotReusedCleanly(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	r.hold(10)
	var first *workItem
	n := 0
	p.RunWork(time.Second, func() {
		n++
		p.RunWork(time.Second, func() { n++ })
		if p.workHead != first {
			t.Fatal("follow-up work did not reuse the completed slot")
		}
	})
	first = p.workHead
	r.engine.RunUntil(10 * time.Second)
	if n != 2 {
		t.Fatalf("completions = %d, want 2", n)
	}
	if got := r.fw.CPUTimeOf(10); got != 2*time.Second {
		t.Fatalf("CPUTimeOf = %v, want 2s", got)
	}
}

// reevaluateFireOrder builds a fresh rig with n paused processes, wakes the
// CPU so Framework.Reevaluate resumes them all in one pass, and returns the
// order their completions fire in.
func reevaluateFireOrder(n int) []power.UID {
	r := newRig(nil)
	var order []power.UID
	for i := 0; i < n; i++ {
		uid := power.UID(100 + i)
		p := r.fw.NewProcess(uid)
		// CPU is asleep (no wakelock yet), so the item queues paused.
		p.RunWork(time.Second, func() { order = append(order, uid) })
	}
	// One wakelock wakes the CPU; every process resumes in the same
	// Reevaluate pass, so all completions land at the same timestamp and
	// only scheduling order separates them.
	r.hold(500)
	r.engine.RunUntil(time.Hour)
	return order
}

// TestReevaluateOrderDeterministic is the regression test for the latent
// nondeterminism where Framework.Reevaluate ranged over the procs map:
// resume order (and thus engine seq numbers at equal timestamps) depended
// on map iteration order. It must now be registration order, every run.
func TestReevaluateOrderDeterministic(t *testing.T) {
	const n = 64
	first := reevaluateFireOrder(n)
	if len(first) != n {
		t.Fatalf("fired %d completions, want %d", len(first), n)
	}
	for i, uid := range first {
		if want := power.UID(100 + i); uid != want {
			t.Fatalf("position %d fired %d, want %d (registration order)", i, uid, want)
		}
	}
	for run := 0; run < 3; run++ {
		got := reevaluateFireOrder(n)
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d diverged at position %d: %d vs %d", run, i, got[i], first[i])
			}
		}
	}
}

// TestBacklogNodesArePooled pins what work that has never run costs: 8 000
// submissions to a process whose CPU sleeps, no two in a row alike, hold at
// most 56 B each (a 48-byte backlog node, where a work item takes 112), and
// once a drain, a Kill or a Reset has given the nodes back, another 8 000
// allocate nothing.
func TestBacklogNodesArePooled(t *testing.T) {
	if size := unsafe.Sizeof(pending{}); size != 48 {
		t.Errorf("a backlog node is %d B, pinned at 48", size)
	}
	const n = 8000
	submit := func(p *Process) {
		for i := 0; i < n; i++ {
			p.RunWork(time.Duration(1+i%2)*time.Second, nil)
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		name     string
		giveBack func(r *rig, p *Process) *Process // returns the process to submit to next
	}{
		{"drain", func(r *rig, p *Process) *Process {
			wl := r.hold(10)
			r.engine.RunUntil(r.engine.Now() + time.Hour)
			wl.Release()
			return p
		}},
		{"Kill", func(r *rig, p *Process) *Process {
			p.Kill()
			return r.fw.NewProcess(11)
		}},
		{"Reset", func(r *rig, p *Process) *Process {
			r.engine.Reset()
			r.meter.Reset()
			r.reg.Reset()
			r.world.Reset()
			r.pm.Reset()
			r.fw.Reset()
			return r.fw.NewProcess(10)
		}},
	} {
		r := newRig(nil)
		p := r.fw.NewProcess(10)
		base := live()
		submit(p)
		held := live() - base
		if p.backHead == nil || p.workHead != nil {
			t.Fatalf("%s: submissions to a sleeping CPU did not wait as nodes", tc.name)
		}
		t.Logf("%s: %d never-run submissions hold %d B, %.1f B each", tc.name, n, held, float64(held)/n)
		if held > 56*n {
			t.Errorf("%s: %d never-run submissions hold %.1f B each, pinned at ≤ 56", tc.name, n, float64(held)/n)
		}
		p = tc.giveBack(r, p)
		if got := mallocs(func() { submit(p) }); got != 0 {
			t.Errorf("after a %s, %d more submissions allocate %d times, want 0", tc.name, n, got)
		}
		if p.backHead == nil {
			t.Fatalf("%s: the second submissions did not wait as nodes", tc.name)
		}
		runtime.KeepAlive(r)
	}
}

// TestAlikeSubmissionsShareANode: the listener nobody unregistered hands a
// sleeping CPU the same job 8 000 times — one length, one callback bound
// once — and its backlog holds one node counting them, allocated once, that
// starts 8 000 items when the CPU wakes. A closure built per submission is a
// callback of its own, though every one is of the same literal: those wait
// as a node each, and each reports to its own closure.
func TestAlikeSubmissionsShareANode(t *testing.T) {
	const n = 8000
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	done := 0
	onDone := func() { done++ }
	p.RunWork(time.Second, onDone) // the node itself, allocated here
	if got := mallocs(func() {
		for i := 1; i < n; i++ {
			p.RunWork(time.Second, onDone)
		}
	}); got != 0 {
		t.Errorf("%d alike submissions behind the first allocate %d times, want 0", n-1, got)
	}
	if p.backHead == nil || p.backHead != p.backTail || p.backHead.n != n {
		t.Fatalf("%d alike submissions to a sleeping CPU do not wait as one node counting them", n)
	}
	r.hold(10)
	if got, want := r.meter.InstantPowerOfW(10), n*device.PixelXL.CPUActiveW+device.PixelXL.CPUIdleAwakeW; !almost(got, want) {
		t.Fatalf("the node's %d items draw %v W once the CPU wakes, want %v", n, got, want)
	}
	r.engine.RunUntil(time.Hour)
	if done != n {
		t.Fatalf("%d alike submissions completed %d times", n, done)
	}

	var got []int
	r2 := newRig(nil)
	q := r2.fw.NewProcess(20)
	for i := 0; i < 3; i++ {
		q.RunWork(time.Second, func() { got = append(got, i) })
	}
	nodes := 0
	for b := q.backHead; b != nil; b = b.next {
		nodes++
	}
	if nodes != 3 {
		t.Fatalf("3 closures of one literal wait as %d nodes, want 3", nodes)
	}
	r2.hold(20)
	r2.engine.RunUntil(time.Hour)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("3 closures of one literal reported %v, want [0 1 2]", got)
	}
}

// mallocs counts the heap allocations one call of f makes, on one P as
// testing.AllocsPerRun counts them; AllocsPerRun's warm-up call would take
// the pooled nodes the counted call is meant to reuse.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestKillOfNeverRunWorkIsNoWork: work that never ran holds no draw slot, so
// killing the process behind it must leave its owner's and the device's
// energy, as float bits, exactly where killing the same process with no
// work leaves them. A governor denies the process background work while
// another uid keeps the CPU up, so its backlog never starts; the process
// draws through a wakelock of its own, or through nothing at all.
func TestKillOfNeverRunWorkIsNoWork(t *testing.T) {
	run := func(backlog int, own bool) [4]uint64 {
		gov := &gateGov{deny: map[power.UID]bool{10: true}}
		r := newRig(gov)
		p := r.fw.NewProcess(10)
		q := r.fw.NewProcess(20)
		slots := 0
		if own {
			r.hold(10)
			slots = 1
		}
		r.hold(20)
		q.RunWork(90*time.Second, nil)
		for i := 0; i < backlog; i++ {
			r.engine.RunUntil(r.engine.Now() + 1700*time.Millisecond)
			p.RunWork(time.Second, nil)
			p.NetworkRequest(time.Second, nil)
		}
		if (p.backHead != nil) != (backlog > 0) || p.workHead != nil {
			t.Fatalf("backlog %d: the work did not wait unrun", backlog)
		}
		if got := r.meter.DrawCount(10); got != slots {
			t.Fatalf("backlog %d: uid 10 holds %d draw slots, want %d", backlog, got, slots)
		}
		r.engine.RunUntil(time.Minute)
		p.Kill()
		r.engine.RunUntil(2 * time.Minute)
		return [4]uint64{math.Float64bits(r.meter.EnergyOfJ(10)), math.Float64bits(r.meter.EnergyJ()),
			math.Float64bits(r.meter.InstantPowerOfW(10)), math.Float64bits(r.meter.InstantPowerW())}
	}
	for _, own := range []bool{true, false} {
		if got, want := run(20, own), run(0, own); got != want {
			t.Errorf("own wakelock %v: killing a never-run backlog leaves owner J, device J, owner W, device W %#x; with no work %#x",
				own, got, want)
		}
	}
}
