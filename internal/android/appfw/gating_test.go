package appfw

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/android/powermgr"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

// The reference for TestGatingMatchesFullWalk: gating as the package did it
// before reevaluate followed flips — every call walks the process's whole
// work list — over a model of just enough of the framework to tell the two
// apart: which items run after each step, the order and instants they
// complete at (engine order: due time, then the sequence number start took),
// the error each request reports, and what CPUTimeOf reads: the billed CPU
// time plus that of the CPU items in flight.

type refItem struct {
	label     string // what its completion logs as; "" for no callback, which logs nothing
	net       bool
	chain     bool  // completing submits one more second of work
	err       error // what the completion reports: fixed at submission, or a timeout at start
	waited    bool  // it could not start when submitted
	remaining time.Duration

	running, started            bool
	startedAt, pausedAt, doneAt simclock.Time
	seq                         int
}

type refProc struct {
	uid      power.UID
	fg, dead bool
	items    []*refItem // submission order
	cpu      time.Duration
	ran      [2]bool // an item of each kind (CPU, network) has run
}

type refWorld struct {
	now       simclock.Time
	awake     bool
	connected bool
	healthy   bool
	deny      map[power.UID]bool
	procs     []*refProc // registration order; the dead stay, with no items
	seq       int
	nextID    int
	log       []string
	// carried counts, by the error each reports, the items that started
	// after waiting: the framework's backlog nodes.
	carried map[error]int
}

func (m *refWorld) canRun(p *refProc) bool {
	return !p.dead && m.awake && (p.fg || !m.deny[p.uid])
}

// reevaluate is the old Process.reevaluate's work loop.
func (m *refWorld) reevaluate(p *refProc) {
	run := m.canRun(p)
	for _, w := range p.items {
		switch {
		case run && !w.running:
			m.start(p, w)
		case !run && w.running:
			m.pause(p, w)
		}
	}
}

func (m *refWorld) reevaluateAll() {
	for _, p := range m.procs {
		m.reevaluate(p)
	}
}

func (m *refWorld) start(p *refProc, w *refItem) {
	if w.net && w.err == nil && m.now-w.pausedAt > NetTimeout {
		w.err = ErrTimeout
		w.remaining = 0
	}
	if w.waited && !w.started {
		m.carried[w.err]++
	}
	w.running, w.started, w.startedAt = true, true, m.now
	if w.net {
		p.ran[1] = true
	} else {
		p.ran[0] = true
	}
	m.seq++
	w.seq = m.seq
	w.doneAt = m.now + w.remaining
}

func (m *refWorld) pause(p *refProc, w *refItem) {
	elapsed := m.now - w.startedAt
	if w.remaining -= elapsed; w.remaining < 0 {
		w.remaining = 0
	}
	if !w.net {
		p.cpu += elapsed
	}
	w.running = false
	w.pausedAt = m.now
}

// callback is the completion a submission carries: one of its own, logged
// under the submission's number; the one its process shares, logged under
// the process's uid; or none.
type callback uint8

const (
	ownCallback callback = iota
	sharedCallback
	noCallback
)

func (cb callback) String() string { return [...]string{"own", "shared", "none"}[cb] }

// submit queues work; a request reads connectivity and server health as it
// is made, and one made offline is 50 ms of CPU work that fails.
func (m *refWorld) submit(p *refProc, net, chain bool, d time.Duration, cb callback) {
	if p.dead {
		return
	}
	w := &refItem{net: net, chain: chain, remaining: d, pausedAt: m.now}
	switch cb {
	case ownCallback:
		m.nextID++
		w.label = fmt.Sprint(m.nextID)
	case sharedCallback:
		w.label = sharedLabel(p.uid)
	}
	switch {
	case net && !m.connected:
		w.net, w.remaining, w.err = false, 50*time.Millisecond, ErrNetworkDown
	case net && !m.healthy:
		w.err = ErrServerFailure
	}
	p.items = append(p.items, w)
	m.reevaluate(p)
	w.waited = !w.started
}

func (m *refWorld) advance(to simclock.Time) {
	for {
		var next *refItem
		var owner *refProc
		for _, p := range m.procs {
			for _, w := range p.items {
				if w.running && w.doneAt <= to && (next == nil || w.doneAt < next.doneAt ||
					w.doneAt == next.doneAt && w.seq < next.seq) {
					next, owner = w, p
				}
			}
		}
		if next == nil {
			break
		}
		m.now = next.doneAt
		m.complete(owner, next)
	}
	m.now = to
}

func (m *refWorld) complete(p *refProc, w *refItem) {
	if !w.net {
		p.cpu += m.now - w.startedAt
	}
	i := slices.Index(p.items, w)
	p.items = slices.Delete(p.items, i, i+1)
	if w.label != "" {
		m.log = append(m.log, completion(w.label, m.now, w.err))
	}
	if w.chain {
		m.submit(p, false, false, refBusy(time.Second), ownCallback)
	}
}

func (m *refWorld) kill(p *refProc) {
	for _, w := range p.items {
		if w.running {
			m.pause(p, w)
		}
	}
	p.items = nil
	p.dead = true
}

func (m *refWorld) cpuTimeOf(p *refProc) time.Duration {
	t := p.cpu
	for _, w := range p.items {
		if w.running && !w.net {
			t += m.now - w.startedAt
		}
	}
	return t
}

func completion(label string, at simclock.Time, err error) string {
	return fmt.Sprintf("%s@%v err=%v", label, at, err)
}

// sharedLabel is what the callback shared by uid's submissions logs as.
func sharedLabel(uid power.UID) string { return fmt.Sprint("shared-", uid) }

// gateGov lets the test shut background work per uid, as Doze does.
type gateGov struct {
	hooks.Nop
	deny map[power.UID]bool
}

func (g *gateGov) AllowBackgroundWork(uid power.UID) bool { return !g.deny[uid] }

// gatingPair drives the framework and the reference through the same steps.
type gatingPair struct {
	t     *testing.T
	r     *rig
	gov   *gateGov
	wl    *powermgr.Wakelock // uid 500's: the only thing keeping the CPU up
	procs []*Process
	// shared and sharedErr are each process's one callback of each type,
	// handed to every submission that shares it.
	shared    []func()
	sharedErr []func(error)
	nextID    int
	runs      int // backlog nodes check has found counting more than one submission
	log       []string
	ticks     int
	ref       *refWorld
}

func newGatingPair(t *testing.T) *gatingPair {
	gov := &gateGov{deny: map[power.UID]bool{}}
	g := &gatingPair{t: t, r: newRig(gov), gov: gov,
		ref: &refWorld{connected: true, healthy: true, deny: map[power.UID]bool{}, carried: map[error]int{}}}
	g.wl = g.r.pm.NewWakelock(500, hooks.Wakelock, "cpu")
	return g
}

func (g *gatingPair) newProcess() {
	uid := power.UID(100 + len(g.procs))
	p := g.r.fw.NewProcess(uid)
	g.procs = append(g.procs, p)
	g.shared = append(g.shared, func() {
		g.log = append(g.log, completion(sharedLabel(uid), g.r.engine.Now(), nil))
	})
	g.sharedErr = append(g.sharedErr, func(err error) {
		g.log = append(g.log, completion(sharedLabel(uid), g.r.engine.Now(), err))
	})
	g.ref.procs = append(g.ref.procs, &refProc{uid: uid})
	// A timer and an alarm whose ticks come due behind shut gates: not part
	// of the reference, but check holds pendingTicks to what they hold.
	p.Every(700*time.Millisecond, func() { g.ticks++ })
	p.AlarmEvery(1300*time.Millisecond, func() { g.ticks++ })
}

// refBusy is RunWork's scaling of busy time to the rig's device.
func refBusy(busy time.Duration) time.Duration {
	return time.Duration(float64(busy) / device.PixelXL.CPUSpeed)
}

func (g *gatingPair) runWork(p *Process, busy time.Duration, chain bool) {
	if p.dead {
		return
	}
	g.nextID++
	id := g.nextID
	p.RunWork(busy, func() {
		g.log = append(g.log, completion(fmt.Sprint(id), g.r.engine.Now(), nil))
		if chain {
			g.runWork(p, time.Second, false)
		}
	})
}

func (g *gatingPair) request(p *Process, d time.Duration) {
	if p.dead {
		return
	}
	g.nextID++
	id := g.nextID
	p.NetworkRequest(d, func(err error) {
		g.log = append(g.log, completion(fmt.Sprint(id), g.r.engine.Now(), err))
	})
}

// step applies one operation to both sides and names it; pick(n) chooses
// each of its parameters from [0, n).
func (g *gatingPair) step(pick func(n int) int) string {
	i := pick(len(g.procs))
	p, rp := g.procs[i], g.ref.procs[i]
	switch n := pick(126); {
	case n < 35:
		busy := time.Duration(1+pick(3)) * time.Second
		chain := pick(4) == 0
		g.runWork(p, busy, chain)
		g.ref.submit(rp, false, chain, refBusy(busy), ownCallback)
		return fmt.Sprintf("RunWork(%d, %v, chain=%v)", p.uid, busy, chain)
	case n < 45:
		d := time.Duration(1+pick(2)) * time.Second
		g.request(p, d)
		g.ref.submit(rp, true, false, d, ownCallback)
		return fmt.Sprintf("NetworkRequest(%d, %v)", p.uid, d)
	case n < 65:
		// The listener nobody unregistered: submissions alike in all but
		// their instant, which a backlog counts in one node where it may.
		cb := []callback{sharedCallback, noCallback}[pick(2)]
		if pick(2) == 0 {
			d := time.Second
			onDone := g.sharedErr[i]
			if cb == noCallback {
				onDone = nil
			}
			p.NetworkRequest(d, onDone)
			g.ref.submit(rp, true, false, d, cb)
			return fmt.Sprintf("NetworkRequest(%d, %v, callback %v)", p.uid, d, cb)
		}
		busy := time.Duration(1+pick(2)) * time.Second
		onDone := g.shared[i]
		if cb == noCallback {
			onDone = nil
		}
		p.RunWork(busy, onDone)
		g.ref.submit(rp, false, false, refBusy(busy), cb)
		return fmt.Sprintf("RunWork(%d, %v, callback %v)", p.uid, busy, cb)
	case n < 77:
		if g.ref.awake = !g.ref.awake; g.ref.awake {
			g.wl.Acquire()
		} else {
			g.wl.Release()
		}
		g.ref.reevaluateAll()
		return fmt.Sprintf("awake=%v", g.ref.awake)
	case n < 87:
		// A governor changes its mind, and tells the framework — or does
		// not, and the next submission finds out.
		deny := !g.gov.deny[p.uid]
		g.gov.deny[p.uid], g.ref.deny[p.uid] = deny, deny
		tell := pick(2) == 0
		if tell {
			g.r.fw.Reevaluate()
			g.ref.reevaluateAll()
		}
		return fmt.Sprintf("deny[%d]=%v told=%v", p.uid, deny, tell)
	case n < 95:
		fg := pick(2) == 0
		p.SetForeground(fg)
		if !rp.dead && rp.fg != fg {
			rp.fg = fg
			g.ref.reevaluate(rp)
		}
		return fmt.Sprintf("SetForeground(%d, %v)", p.uid, fg)
	case n < 118:
		d := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 45 * time.Second}[pick(4)]
		g.r.engine.RunUntil(g.r.engine.Now() + d)
		g.ref.advance(g.ref.now + d)
		return fmt.Sprintf("advance %v", d)
	case n < 121:
		// Wi-Fi, so a transfer leaves no radio tail drawing after it.
		g.ref.connected = !g.ref.connected
		g.r.world.SetNetwork(g.ref.connected, true)
		return fmt.Sprintf("connected=%v", g.ref.connected)
	case n < 124:
		g.ref.healthy = !g.ref.healthy
		g.r.world.SetServerHealthy(g.ref.healthy)
		return fmt.Sprintf("healthy=%v", g.ref.healthy)
	default:
		p.Kill()
		if !rp.dead {
			g.ref.kill(rp)
		}
		g.newProcess()
		return fmt.Sprintf("Kill(%d)", p.uid)
	}
}

// check compares the two sides, and the framework against its own invariant:
// the linked items, then the backlog nodes, are the reference's items in
// submission order, the linked ones those it has started and the nodes those
// it never has, with what they were submitted with.
func (g *gatingPair) check(where string) {
	t := g.t
	t.Helper()
	for i, rp := range g.ref.procs {
		p := g.procs[i]
		if p.workRunning && p.backHead != nil {
			t.Fatalf("%s: uid %d: a node waits in the backlog of a process recorded as running", where, p.uid)
		}
		n := 0
		for w := p.workHead; w != nil; w, n = w.next, n+1 {
			if w.running != p.workRunning {
				t.Fatalf("%s: uid %d item %d: running=%v, process records %v", where, p.uid, n, w.running, p.workRunning)
			}
			if n < len(rp.items) && (w.running != rp.items[n].running || !rp.items[n].started) {
				t.Fatalf("%s: uid %d item %d: running=%v, the full walk leaves it running=%v started=%v",
					where, p.uid, n, w.running, rp.items[n].running, rp.items[n].started)
			}
		}
		var last *pending
		for b := p.backHead; b != nil; b = b.next {
			last = b
			if b.n == 0 {
				t.Fatalf("%s: uid %d: a backlog node counts no submission", where, p.uid)
			}
			if b.n > 1 {
				g.runs++
			}
			// A node of n stands for the next n items, each as it was
			// submitted; the instant matters only to a request's timeout.
			for k := uint32(0); k < b.n; k, n = k+1, n+1 {
				if n >= len(rp.items) {
					continue
				}
				if ri := rp.items[n]; ri.started || b.remaining != ri.remaining || b.kind == netWork && b.at != ri.pausedAt ||
					(b.kind == netWork) != ri.net || codeErr[b.err] != ri.err {
					t.Fatalf("%s: uid %d item %d waits as submission %d of %d of a node (%v at %v, net %v, err %v); the full walk has it started=%v, %v at %v, net %v, err %v",
						where, p.uid, n, k+1, b.n, b.remaining, b.at, b.kind == netWork, codeErr[b.err], ri.started, ri.remaining, ri.pausedAt, ri.net, ri.err)
				}
			}
		}
		if last != p.backTail {
			t.Fatalf("%s: uid %d: backlog tail is not its last node", where, p.uid)
		}
		if n != len(rp.items) {
			t.Fatalf("%s: uid %d: %d items linked or waiting, reference has %d", where, p.uid, n, len(rp.items))
		}
		pending := 0
		for _, list := range [][]*timer{p.timers, p.alarms} {
			for _, tm := range list {
				if tm.pending {
					pending++
				}
			}
		}
		if pending != p.pendingTicks {
			t.Fatalf("%s: uid %d: %d timers hold a tick, process counts %d", where, p.uid, pending, p.pendingTicks)
		}
		if got, want := g.r.fw.CPUTimeOf(p.uid), g.ref.cpuTimeOf(rp); got != want {
			t.Fatalf("%s: CPUTimeOf(%d) = %v, the full walk reads %v", where, p.uid, got, want)
		}
		// A process draws for its work through one slot per kind it has
		// run, whatever its backlog, and gives them back at Kill.
		slots, running := 0, false
		for _, ran := range rp.ran {
			if ran && !rp.dead {
				slots++
			}
		}
		for _, w := range rp.items {
			running = running || w.running
		}
		if got := g.r.meter.DrawCount(p.uid); got != slots {
			t.Fatalf("%s: uid %d holds %d draw slots, want %d (kinds run %v, dead %v)", where, p.uid, got, slots, rp.ran, rp.dead)
		}
		if got := g.r.meter.InstantPowerOfW(p.uid); !running && got != 0 {
			t.Fatalf("%s: uid %d runs nothing and draws %v W", where, p.uid, got)
		}
	}
	if len(g.log) != len(g.ref.log) {
		t.Fatalf("%s: %d completions, reference has %d\n got %v\nwant %v", where, len(g.log), len(g.ref.log), g.log, g.ref.log)
	}
	for i := range g.log {
		if g.log[i] != g.ref.log[i] {
			t.Fatalf("%s: completion %d is %s, reference has %s", where, i, g.log[i], g.ref.log[i])
		}
	}
}

// TestGatingMatchesFullWalk drives submissions, CPU sleep and wake, governor
// denials (announced and silent), foreground moves, connectivity and server
// health, completions and kills in seeded random order, and after every step
// requires that every linked item is in the state its process records, that
// no node waits behind a running process, that pendingTicks counts the
// timers holding a tick, and that the full-walk reference agrees on which
// items run, which never have, when and in what order they complete, the
// error each reports, and what CPUTimeOf reads; each uid holds one draw slot
// per kind of work it has run, and draws exactly 0 W while none runs. Some
// submissions share their process's callback or have none, so runs of them
// wait as one node, which must stand for each of the reference's items.
func TestGatingMatchesFullWalk(t *testing.T) {
	carried := map[error]int{}
	runs := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := newGatingPair(t)
		for i := 0; i < 3; i++ {
			g.newProcess()
		}
		for n := 0; n < 600; n++ {
			op := g.step(rng.Intn)
			g.check(fmt.Sprintf("seed %d step %d %s", seed, n, op))
		}
		if len(g.log) < 50 || g.ticks < 50 {
			t.Fatalf("seed %d: %d completions, %d ticks — the schedule exercises nothing", seed, len(g.log), g.ticks)
		}
		for err, n := range g.ref.carried {
			carried[err] += n
		}
		runs += g.runs
	}
	t.Logf("steps that found a node counting a run: %d", runs)
	if runs < 200 {
		t.Errorf("%d steps found a node counting a run of submissions, want ≥ 200", runs)
	}
	// Every error a request can report has reached its completion through
	// a backlog node.
	t.Logf("items started after waiting, by error: %v", carried)
	for _, err := range []error{nil, ErrNetworkDown, ErrServerFailure, ErrTimeout} {
		if carried[err] < 20 {
			t.Errorf("%d items started after waiting with err=%v, want ≥ 20", carried[err], err)
		}
	}
}

// FuzzGatingMatchesFullWalk runs TestGatingMatchesFullWalk's steps with every
// choice read from the input, one byte a choice.
func FuzzGatingMatchesFullWalk(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		prog := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	// And the listener nobody unregistered, spelt out in step's picks: the
	// CPU sleeps while uid 100 is handed runs of alike submissions — two
	// requests 45 s apart, twice over, then CPU work with its process's
	// callback, of one length and then another, with none, and with a
	// callback each — and then it wakes and the backlog runs out.
	var (
		sharedReq  = []byte{0, 45, 0, 0}    // uid 100, shared op, the shared callback, a request
		nilReq     = []byte{0, 45, 1, 0}    // the same with no callback
		sharedCPU1 = []byte{0, 45, 0, 1, 0} // 1 s of CPU work, the shared callback
		sharedCPU2 = []byte{0, 45, 0, 1, 1} // 2 s of it
		nilCPU     = []byte{0, 45, 1, 1, 0} // 1 s of it, no callback
		ownCPU     = []byte{0, 0, 0, 1}     // 1 s of it with a callback of its own, no chain
		wait       = []byte{0, 100, 3}      // advance 45 s
		wake       = []byte{0, 65}          // awake=true
	)
	f.Add(slices.Concat(sharedReq, wait, sharedReq, nilReq, wait, nilReq,
		sharedCPU1, sharedCPU1, sharedCPU2, nilCPU, nilCPU, ownCPU, ownCPU, wake, wait, wait))
	f.Fuzz(func(t *testing.T, prog []byte) {
		g := newGatingPair(t)
		for i := 0; i < 3; i++ {
			g.newProcess()
		}
		pick := func(n int) int {
			if len(prog) == 0 {
				return 0
			}
			v := int(prog[0]) % n
			prog = prog[1:]
			return v
		}
		for n := 0; len(prog) > 0 && n < 200; n++ {
			op := g.step(pick)
			g.check(fmt.Sprintf("step %d %s", n, op))
		}
	})
}

// submitPaused times n submissions to a process that cannot run: the listener
// nobody unregistered, delivering to a sleeping CPU. Each lasts a second or
// two, by turns, so no two in a row start alike and each waits as a node of
// its own.
func submitPaused(n int) (*rig, time.Duration) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.RunWork(time.Duration(1+i%2)*time.Second, nil)
	}
	return r, time.Since(t0)
}

// TestBacklogIsLinear: sixteen times the backlog costs about sixteen times
// as much. When every submission re-walked the list it cost 256 times, so a
// bound of 64 leaves a linear backlog four times its cost in machine noise
// and still fails a quadratic one by as much.
func TestBacklogIsLinear(t *testing.T) {
	best := func(n int) time.Duration {
		var b time.Duration
		for i := 0; i < 5; i++ {
			if _, d := submitPaused(n); b == 0 || d < b {
				b = d
			}
		}
		return b
	}
	small, large := best(1000), best(16000)
	ratio := float64(large) / float64(small)
	t.Logf("1000 paused submissions %v, 16000 %v: ratio %.1f", small, large, ratio)
	if ratio >= 64 {
		t.Errorf("16000 paused submissions cost %.1f× what 1000 do (%v against %v); linear is 16×", ratio, large, small)
	}
}

// TestPausedBacklogHoldsNoDrawSlots: work that has never run draws nothing,
// so it takes no slot in its owner's table — which the meter's string-tagged
// Set scans from the top on every call — and once it runs, a backlog of any
// size draws through one.
func TestPausedBacklogHoldsNoDrawSlots(t *testing.T) {
	r, _ := submitPaused(8000)
	if got := r.meter.DrawCount(10); got != 0 {
		t.Fatalf("a paused backlog of 8000 holds %d draw slots, want 0", got)
	}
	r.meter.Set(10, power.GPS, "fix", 1.5)
	r.meter.Set(10, power.GPS, "fix", 0.5)
	if got := r.meter.InstantPowerOfW(10); got != 0.5 {
		t.Fatalf("tagged draw reads %v W after an update, want 0.5", got)
	}
	if got := r.meter.DrawCount(10); got != 1 {
		t.Fatalf("one tagged draw set twice holds %d slots, want 1", got)
	}
	r.meter.Set(10, power.GPS, "fix", 0)
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw reads %v W after it is set to 0, want 0", got)
	}
	// The backlog still runs once the CPU is up, all of it through the
	// process's one CPU slot.
	r.hold(10)
	if got := r.meter.DrawCount(10); got != 1+1 {
		t.Fatalf("%d draw slots once 8000 items run, want the work's 1 and the wakelock's", got)
	}
	if got, want := r.meter.InstantPowerOfW(10), 8000*device.PixelXL.CPUActiveW+device.PixelXL.CPUIdleAwakeW; !almost(got, want) {
		t.Fatalf("8000 running items draw %v W, want %v", got, want)
	}
}
