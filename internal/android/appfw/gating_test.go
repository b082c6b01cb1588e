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
// and what CPUTimeOf reads, in-flight transfers included.

type refItem struct {
	id        int
	net       bool
	chain     bool // completing submits one more second of work
	timedOut  bool
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
}

type refWorld struct {
	now    simclock.Time
	awake  bool
	deny   map[power.UID]bool
	procs  []*refProc // registration order; the dead stay, with no items
	seq    int
	nextID int
	log    []string
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
			m.start(w)
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

func (m *refWorld) start(w *refItem) {
	if w.net && !w.timedOut && m.now-w.pausedAt > NetTimeout {
		w.timedOut = true
		w.remaining = 0
	}
	w.running, w.started, w.startedAt = true, true, m.now
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

func (m *refWorld) submit(p *refProc, net, chain bool, d time.Duration) {
	if p.dead {
		return
	}
	m.nextID++
	p.items = append(p.items, &refItem{id: m.nextID, net: net, chain: chain, remaining: d, pausedAt: m.now})
	m.reevaluate(p)
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
	m.log = append(m.log, completion(w.id, m.now, w.timedOut))
	if w.chain {
		m.submit(p, false, false, refBusy(time.Second))
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
		if w.running {
			t += m.now - w.startedAt
		}
	}
	return t
}

func completion(id int, at simclock.Time, timedOut bool) string {
	return fmt.Sprintf("%d@%v timeout=%v", id, at, timedOut)
}

// gateGov lets the test shut background work per uid, as Doze does.
type gateGov struct {
	hooks.Nop
	deny map[power.UID]bool
}

func (g *gateGov) AllowBackgroundWork(uid power.UID) bool { return !g.deny[uid] }

// gatingPair drives the framework and the reference through the same steps.
type gatingPair struct {
	t      *testing.T
	r      *rig
	gov    *gateGov
	wl     *powermgr.Wakelock // uid 500's: the only thing keeping the CPU up
	procs  []*Process
	nextID int
	log    []string
	ticks  int
	ref    *refWorld
}

func newGatingPair(t *testing.T) *gatingPair {
	gov := &gateGov{deny: map[power.UID]bool{}}
	g := &gatingPair{t: t, r: newRig(gov), gov: gov, ref: &refWorld{deny: map[power.UID]bool{}}}
	g.wl = g.r.pm.NewWakelock(500, hooks.Wakelock, "cpu")
	return g
}

func (g *gatingPair) newProcess() {
	uid := power.UID(100 + len(g.procs))
	p := g.r.fw.NewProcess(uid, fmt.Sprint("app", uid))
	g.procs = append(g.procs, p)
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
		g.log = append(g.log, completion(id, g.r.engine.Now(), false))
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
		g.log = append(g.log, completion(id, g.r.engine.Now(), err == ErrTimeout))
	})
}

// step applies one random operation to both sides and names it.
func (g *gatingPair) step(rng *rand.Rand) string {
	i := rng.Intn(len(g.procs))
	p, rp := g.procs[i], g.ref.procs[i]
	switch n := rng.Intn(100); {
	case n < 35:
		busy := time.Duration(1+rng.Intn(3)) * time.Second
		chain := rng.Intn(4) == 0
		g.runWork(p, busy, chain)
		g.ref.submit(rp, false, chain, refBusy(busy))
		return fmt.Sprintf("RunWork(%d, %v, chain=%v)", p.uid, busy, chain)
	case n < 45:
		d := time.Duration(1+rng.Intn(2)) * time.Second
		g.request(p, d)
		g.ref.submit(rp, true, false, d)
		return fmt.Sprintf("NetworkRequest(%d, %v)", p.uid, d)
	case n < 57:
		if g.ref.awake = !g.ref.awake; g.ref.awake {
			g.wl.Acquire()
		} else {
			g.wl.Release()
		}
		g.ref.reevaluateAll()
		return fmt.Sprintf("awake=%v", g.ref.awake)
	case n < 67:
		// A governor changes its mind, and tells the framework — or does
		// not, and the next submission finds out.
		deny := !g.gov.deny[p.uid]
		g.gov.deny[p.uid], g.ref.deny[p.uid] = deny, deny
		tell := rng.Intn(2) == 0
		if tell {
			g.r.fw.Reevaluate()
			g.ref.reevaluateAll()
		}
		return fmt.Sprintf("deny[%d]=%v told=%v", p.uid, deny, tell)
	case n < 75:
		fg := rng.Intn(2) == 0
		p.SetForeground(fg)
		if !rp.dead && rp.fg != fg {
			rp.fg = fg
			g.ref.reevaluate(rp)
		}
		return fmt.Sprintf("SetForeground(%d, %v)", p.uid, fg)
	case n < 98:
		d := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 45 * time.Second}[rng.Intn(4)]
		g.r.engine.RunUntil(g.r.engine.Now() + d)
		g.ref.advance(g.ref.now + d)
		return fmt.Sprintf("advance %v", d)
	default:
		p.Kill()
		if !rp.dead {
			g.ref.kill(rp)
		}
		g.newProcess()
		return fmt.Sprintf("Kill(%d)", p.uid)
	}
}

// check compares the two sides, and the framework against its own invariant.
func (g *gatingPair) check(where string) {
	t := g.t
	t.Helper()
	for i, rp := range g.ref.procs {
		p := g.procs[i]
		if p.workNew != nil {
			t.Fatalf("%s: uid %d: workNew set outside addWork", where, p.uid)
		}
		n := 0
		for w := p.workHead; w != nil; w, n = w.next, n+1 {
			if w.running != p.workRunning {
				t.Fatalf("%s: uid %d item %d: running=%v, process records %v", where, p.uid, n, w.running, p.workRunning)
			}
			if n < len(rp.items) && w.running != rp.items[n].running {
				t.Fatalf("%s: uid %d item %d: running=%v, the full walk leaves it %v", where, p.uid, n, w.running, rp.items[n].running)
			}
		}
		if n != len(rp.items) {
			t.Fatalf("%s: uid %d: %d items linked, reference has %d", where, p.uid, n, len(rp.items))
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
		started := 0
		for _, w := range rp.items {
			if w.started {
				started++
			}
		}
		if got := g.r.meter.DrawCount(p.uid); got != started {
			t.Fatalf("%s: uid %d holds %d draw slots, has %d items that ever ran", where, p.uid, got, started)
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
// denials (announced and silent), foreground moves, completions and kills in
// seeded random order, and after every step requires that every linked item
// is in the state its process records, that pendingTicks counts the timers
// holding a tick, and that the full-walk reference agrees on which items run,
// when and in what order they complete, what CPUTimeOf reads and how many
// draw slots each uid holds.
func TestGatingMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := newGatingPair(t)
		for i := 0; i < 3; i++ {
			g.newProcess()
		}
		for n := 0; n < 600; n++ {
			op := g.step(rng)
			g.check(fmt.Sprintf("seed %d step %d %s", seed, n, op))
		}
		if len(g.log) < 50 || g.ticks < 50 {
			t.Fatalf("seed %d: %d completions, %d ticks — the schedule exercises nothing", seed, len(g.log), g.ticks)
		}
	}
}

// submitPaused times n submissions to a process that cannot run: the listener
// nobody unregistered, delivering to a sleeping CPU.
func submitPaused(n int) (*rig, time.Duration) {
	r := newRig(nil)
	p := r.fw.NewProcess(10, "app")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.RunWork(time.Second, nil)
	}
	return r, time.Since(t0)
}

// TestBacklogIsLinear: four times the backlog costs about four times as
// much. When every submission re-walked the list it cost sixteen.
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
	small, large := best(2000), best(8000)
	ratio := float64(large) / float64(small)
	t.Logf("2000 paused submissions %v, 8000 %v: ratio %.1f", small, large, ratio)
	if ratio >= 8 {
		t.Errorf("8000 paused submissions cost %.1f× what 2000 do (%v against %v); linear is 4×", ratio, large, small)
	}
}

// TestPausedBacklogHoldsNoDrawSlots: an item that has never run draws
// nothing, so it takes no slot in its owner's table — which the meter's
// string-tagged Set scans from the top on every call.
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
	r.meter.Clear(10, power.GPS, "fix")
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw reads %v W after Clear, want 0", got)
	}
	// The backlog still runs once the CPU is up: each item takes its slot
	// as it starts.
	r.hold(10)
	if got := r.meter.DrawCount(10); got != 8000+1 {
		t.Fatalf("%d draw slots once everything runs, want 8000 and the wakelock's", got)
	}
}
