// Package appfw models the slice of the Android application framework that
// energy behaviour depends on: app processes, CPU work execution gated on
// the CPU being awake, timers that only fire while the CPU is up, network
// requests, and the app-level signals the lease manager consumes (severe
// exceptions, UI updates, user interactions — paper §3.3 and §6).
//
// The central semantic is that execution pauses seamlessly when the CPU
// enters deep sleep and resumes when it wakes (paper §4.6: "the execution
// is paused and will be resumed seamlessly later"), which is exactly how a
// deferred wakelock slows down low-utility execution.
//
// Because pause/resume runs on every simulated CPU transition, the whole
// layer is engineered to be allocation-free in steady state, mirroring the
// simclock/power fast paths (DESIGN.md §9): work items are pooled on a
// per-framework free list and linked into an intrusive per-process list
// (O(1) completion removal), their completion callbacks are bound once per
// pooled slot and their draw slots when they first start, timers reuse a
// bound tick callback per tick, DVFS repricing walks a dense slice, and
// each process carries its UID's accounting record and power-meter owner, so
// billing and drawing for it look nothing up.
// Re-gating costs by what changes state: submitting to a process costs the
// same whatever backlog it has paused (Process.reevaluate).
package appfw

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/powermgr"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/power"
	"repro/internal/simclock"
)

// account is one UID's accounting record: the paper's per-app signal vector
// (§2.1, §3.3), and the UID's live process. The framework keeps one for every
// UID that has had a process, however large the UID, and finds it by a binary
// search of the few a world has on the cold paths (ProcessOf, the per-UID
// getters); a Process carries its own, so billing its work is no lookup.
// Records outlive their process — CPUTimeOf of a dead uid still reports its
// total — and Reset zeroes them in place.
type account struct {
	uid          power.UID
	cpuTime      time.Duration
	exceptions   int
	uiUpdates    int
	interactions int
	proc         *Process // nil once the process has died
}

// Framework owns processes and their execution.
type Framework struct {
	engine   *simclock.Engine
	meter    *power.Meter
	profile  device.Profile
	world    *env.Environment
	pm       *powermgr.Service
	registry *binder.Registry
	gov      hooks.Governor

	// Every UID that has had a process: uids ascending, accounts[i] uids[i]'s.
	uids     []power.UID
	accounts []*account
	// last is the account found last. The lease manager reads a UID's
	// signals (CPUTimeOf, ExceptionsOf, …) in a row at every term check, so
	// the search runs once for the four.
	last *account
	// unseen is the zero account lookups answer for a UID without one; it is
	// never written.
	unseen account
	// procList holds the processes in registration order. Reevaluate walks
	// it so that the order in which processes schedule resume events (and
	// thus engine seq numbers at equal timestamps) is deterministic.
	procList  []*Process
	procIter  int  // > 0 while Reevaluate walks procList
	procSweep bool // a process died mid-walk; compact afterwards

	// runningCPU tracks the work items currently burning CPU, for the
	// DVFS-aware draw model (device.Profile.DVFSAlpha). Dense slice with
	// swap-delete (workItem.runIdx is the backindex), so the repricing
	// loop is an index walk.
	runningCPU []*workItem

	// freeWork heads the pool of recycled work-item slots, threaded
	// through workItem.next. Steady-state RunWork/NetworkRequest pop a
	// slot here instead of allocating.
	freeWork *workItem
}

// New creates the framework. gov gates background work (hooks.Nop for all
// policies except Doze).
func New(engine *simclock.Engine, meter *power.Meter, profile device.Profile, world *env.Environment,
	pm *powermgr.Service, registry *binder.Registry, gov hooks.Governor) *Framework {
	fw := &Framework{
		engine: engine, meter: meter, profile: profile, world: world,
		pm: pm, registry: registry, gov: gov,
	}
	pm.OnAwakeChange(func(bool) { fw.Reevaluate() })
	return fw
}

// SetGovernor replaces the work-gating governor before app activity begins.
func (fw *Framework) SetGovernor(gov hooks.Governor) { fw.gov = gov }

// Reset discards all processes and accounting while keeping the work-item
// pool and the accounting records, zeroed, so a recycled framework
// runs the next simulation without re-growing its hot structures. It must
// be called after the engine and meter have been reset: pending events and
// draw slots are already gone, so work items are scrubbed straight back to
// the pool (their stale draw handles degrade to no-ops). The power-manager
// awake subscription wired in New stays valid across reuse.
func (fw *Framework) Reset() {
	for _, p := range fw.procList {
		for w := p.workHead; w != nil; {
			next := w.next
			w.runIdx = -1
			w.prev = nil
			fw.releaseWork(w)
			w = next
		}
		p.workHead, p.workTail = nil, nil
		p.dead = true
	}
	for _, a := range fw.accounts {
		*a = account{uid: a.uid}
	}
	clear(fw.procList)
	fw.procList = fw.procList[:0]
	fw.procIter = 0
	fw.procSweep = false
	clear(fw.runningCPU)
	fw.runningCPU = fw.runningCPU[:0]
}

// accountOf is the read-only lookup: the zero record for an unseen uid.
func (fw *Framework) accountOf(uid power.UID) *account {
	if a := fw.last; a != nil && a.uid == uid {
		return a
	}
	return fw.search(uid)
}

// search is accountOf past its memo.
func (fw *Framework) search(uid power.UID) *account {
	i, ok := slices.BinarySearch(fw.uids, uid)
	if !ok {
		return &fw.unseen
	}
	fw.last = fw.accounts[i]
	return fw.last
}

// NewProcess registers an app process. Each app has a unique uid, like
// Android's per-app Linux uids.
func (fw *Framework) NewProcess(uid power.UID, name string) *Process {
	if uid == power.SystemUID {
		panic("appfw: uid 0 is reserved for the system")
	}
	owner := fw.meter.Owner(uid) // panics on a negative uid
	i, ok := slices.BinarySearch(fw.uids, uid)
	if !ok {
		fw.uids = slices.Insert(fw.uids, i, uid)
		fw.accounts = slices.Insert(fw.accounts, i, &account{uid: uid})
	}
	a := fw.accounts[i]
	if a.proc != nil {
		panic(fmt.Sprintf("appfw: uid %d already registered", uid))
	}
	p := &Process{fw: fw, uid: uid, name: name, acct: a, owner: owner}
	a.proc = p
	fw.procList = append(fw.procList, p)
	return p
}

// ProcessOf returns the process for uid, or nil.
func (fw *Framework) ProcessOf(uid power.UID) *Process { return fw.accountOf(uid).proc }

// CPUTimeOf reports the cumulative CPU busy time attributed to uid
// (the paper's sysTime+userTime metric, §2.1): what has been billed plus the
// elapsed time of whatever is in flight. A process whose items are paused has
// nothing in flight, so its backlog is not walked.
func (fw *Framework) CPUTimeOf(uid power.UID) time.Duration {
	a := fw.accountOf(uid)
	t, p := a.cpuTime, a.proc
	if p == nil || !p.workRunning {
		return t
	}
	for w := p.workHead; w != nil; w = w.next {
		if w.running {
			t += fw.engine.Now() - w.startedAt
		}
	}
	return t
}

// ExceptionsOf reports the cumulative count of severe exceptions thrown by
// uid — the generic low-utility signal for wakelocks (paper §3.3, §6).
func (fw *Framework) ExceptionsOf(uid power.UID) int { return fw.accountOf(uid).exceptions }

// UIUpdatesOf reports cumulative UI updates posted by uid.
func (fw *Framework) UIUpdatesOf(uid power.UID) int { return fw.accountOf(uid).uiUpdates }

// InteractionsOf reports cumulative user interactions received by uid.
func (fw *Framework) InteractionsOf(uid power.UID) int { return fw.accountOf(uid).interactions }

// Reevaluate re-applies work gating to every process. The power manager
// calls it on CPU transitions; policies call it when their gating changes
// (e.g. Doze entering or leaving the idle state). Processes are visited in
// registration order — never map order — so runs are reproducible.
func (fw *Framework) Reevaluate() {
	fw.procIter++
	for i := 0; i < len(fw.procList); i++ {
		fw.procList[i].reevaluate()
	}
	fw.procIter--
	if fw.procIter == 0 && fw.procSweep {
		fw.procSweep = false
		live := fw.procList[:0]
		for _, p := range fw.procList {
			if !p.dead {
				live = append(live, p)
			}
		}
		for i := len(live); i < len(fw.procList); i++ {
			fw.procList[i] = nil // let dead processes be collected
		}
		fw.procList = live
	}
}

// removeProc drops p from the registration-ordered list, preserving the
// order of survivors. Deferred when Reevaluate is mid-walk.
func (fw *Framework) removeProc(p *Process) {
	if fw.procIter > 0 {
		fw.procSweep = true
		return
	}
	for i, x := range fw.procList {
		if x == p {
			copy(fw.procList[i:], fw.procList[i+1:])
			fw.procList[len(fw.procList)-1] = nil
			fw.procList = fw.procList[:len(fw.procList)-1]
			return
		}
	}
}

// ErrNetworkDown is reported when a network request starts with no
// connectivity.
var ErrNetworkDown = errors.New("appfw: network disconnected")

// ErrServerFailure is reported when the remote server fails the request.
var ErrServerFailure = errors.New("appfw: server failure")

// ErrTimeout is reported when a request was paused long enough (CPU asleep)
// that its socket would have timed out.
var ErrTimeout = errors.New("appfw: i/o timeout")

// NetTimeout is the socket timeout applied to paused network requests.
const NetTimeout = 30 * time.Second

// workKind distinguishes CPU-burning work from radio-burning transfers.
type workKind int

const (
	cpuWork workKind = iota
	netWork
)

// workItem is one pausable unit of execution. Items are pooled value slots:
// allocWork pops one from the framework free list and releaseWork pushes it
// back, so steady-state execution churns no heap. The completion callback
// (completeFn) is bound once per slot and the meter draw slot (handle) when
// the item first starts, so a pause/resume cycle is pure pointer and index
// work.
type workItem struct {
	proc      *Process
	kind      workKind
	remaining time.Duration // busy time still needed
	onErr     func(err error)
	onDone    func()
	err       error

	running   bool
	startedAt simclock.Time
	pausedAt  simclock.Time
	doneEvent simclock.EventID

	// handle is the item's dedicated power-meter draw slot, resolved on the
	// first start — an item that has never run draws nothing and holds no
	// slot, so a paused backlog leaves its owner's slot table as short as
	// the meter's linear scans assume. Pause/resume update it by index
	// (power.DrawHandle); the zero handle means not yet resolved.
	handle power.DrawHandle

	// completeFn is the bound completion callback, created once per pooled
	// slot (on first allocation) and reused across recycles, so starting
	// or resuming the item never allocates a closure.
	completeFn func()

	// prev/next thread the intrusive per-process work list; next doubles
	// as the free-list link while the slot is pooled.
	prev, next *workItem
	// runIdx is the item's position in Framework.runningCPU while running
	// CPU work, else -1.
	runIdx int32
}

// Process is one app process.
type Process struct {
	fw         *Framework
	uid        power.UID
	name       string
	foreground bool
	dead       bool

	// workHead/workTail hold the live work items in submission order.
	workHead, workTail *workItem
	// Gating is per process, so linked items share one state: workRunning is
	// the state the last reevaluate left them in, and workNew is the first
	// item linked since, which has never run — nil except inside addWork,
	// which links and re-gates at once. reevaluate touches the items from
	// workNew on unless canRun() has flipped.
	workRunning bool
	workNew     *workItem

	// timers holds the plain timers and alarms the wake-capable ones, each
	// in creation order: reevaluate flushes all of the first before any of
	// the second.
	timers []*timer
	alarms []*timer
	// iter > 0 while reevaluate walks the timer/alarm slices; stops that
	// land mid-walk defer their removal to a post-walk sweep so the walk
	// never skips an entry.
	iter  int
	sweep bool
	// pendingTicks counts the timers and alarms holding an undelivered tick;
	// at zero reevaluate has nothing to flush and skips both slices.
	pendingTicks int

	tailEvent  simclock.EventID // pending radio-tail expiry
	tailFn     func()           // bound expiry callback, created on first tail
	tailHandle power.DrawHandle // persistent radio-tail draw slot

	acct  *account     // the uid's accounting record
	owner *power.Owner // the uid's power-meter record, for the draw slots
}

// UID returns the process uid.
func (p *Process) UID() power.UID { return p.uid }

// Name returns the app name.
func (p *Process) Name() string { return p.name }

// Foreground reports whether the app is in the foreground.
func (p *Process) Foreground() bool { return p.foreground }

// Dead reports whether the process has been killed.
func (p *Process) Dead() bool { return p.dead }

// SetForeground moves the app between foreground and background.
func (p *Process) SetForeground(fg bool) {
	if p.dead || p.foreground == fg {
		return
	}
	p.foreground = fg
	p.reevaluate()
}

// canRun reports whether p's work may execute right now.
func (p *Process) canRun() bool {
	if p.dead {
		return false
	}
	if !p.fw.pm.Awake() {
		return false
	}
	if p.foreground {
		return true
	}
	return p.fw.gov.AllowBackgroundWork(p.uid)
}

// allocWork pops a pooled work slot, or allocates the slot (and its bound
// completion callback — the only per-slot closure, paid once) on first use.
func (fw *Framework) allocWork() *workItem {
	if w := fw.freeWork; w != nil {
		fw.freeWork = w.next
		w.next = nil
		return w
	}
	w := &workItem{runIdx: -1}
	w.completeFn = w.complete
	return w
}

// releaseWork scrubs a work slot and pushes it onto the free list. The
// caller has already cancelled the slot's event (or it has fired) and
// unlinked it from its process list.
func (fw *Framework) releaseWork(w *workItem) {
	w.handle.Release()
	w.handle = power.DrawHandle{}
	w.proc = nil
	w.onErr = nil
	w.onDone = nil
	w.err = nil
	w.running = false
	w.doneEvent = 0
	w.prev = nil
	w.next = fw.freeWork
	fw.freeWork = w
}

// linkWork appends w to p's live work list.
func (p *Process) linkWork(w *workItem) {
	w.prev = p.workTail
	w.next = nil
	if p.workTail != nil {
		p.workTail.next = w
	} else {
		p.workHead = w
	}
	p.workTail = w
	if p.workNew == nil {
		p.workNew = w
	}
}

// unlinkWork removes w from p's live work list in O(1).
func (p *Process) unlinkWork(w *workItem) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		p.workHead = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		p.workTail = w.prev
	}
	w.prev, w.next = nil, nil
}

// RunWork executes busyTime of CPU work, drawing active-CPU power while
// running, then calls onDone (which may be nil). busyTime is the time the
// work takes on the reference device; slower devices take proportionally
// longer. The work pauses whenever the process cannot run. Calling RunWork
// on a dead process is a no-op.
func (p *Process) RunWork(busyTime time.Duration, onDone func()) {
	if p.dead {
		return
	}
	w := p.fw.allocWork()
	w.proc = p
	w.kind = cpuWork
	w.remaining = time.Duration(float64(busyTime) / p.fw.profile.CPUSpeed)
	w.onDone = onDone
	p.addWork(w)
}

// NetworkRequest performs one network transfer taking duration on the wire,
// drawing radio power while active. onDone receives nil on success,
// ErrNetworkDown if there was no connectivity at the start, ErrServerFailure
// if the server is unhealthy (reported after the transfer attempt), or
// ErrTimeout if the request was paused past the socket timeout. Calling
// NetworkRequest on a dead process is a no-op.
func (p *Process) NetworkRequest(duration time.Duration, onDone func(err error)) {
	if p.dead {
		return
	}
	w := p.fw.allocWork()
	w.proc = p
	w.onErr = onDone
	if !p.fw.world.NetworkConnected() {
		// Fast local failure: the stack notices immediately.
		w.kind = cpuWork
		w.remaining = 50 * time.Millisecond
		w.err = ErrNetworkDown
		p.addWork(w)
		return
	}
	w.kind = netWork
	w.remaining = duration
	if !p.fw.world.ServerHealthy() {
		w.err = ErrServerFailure
	}
	p.addWork(w)
}

func (p *Process) addWork(w *workItem) {
	w.pausedAt = p.fw.engine.Now()
	p.linkWork(w)
	p.reevaluate()
}

func (w *workItem) drawW() float64 {
	fw := w.proc.fw
	switch w.kind {
	case netWork:
		if fw.world.NetworkOnWiFi() {
			return fw.profile.RadioActiveW * 0.5
		}
		return fw.profile.RadioActiveW
	default:
		base := fw.profile.CPUActiveW
		if alpha := fw.profile.DVFSAlpha; alpha > 0 {
			// Under DVFS, concurrent load raises the operating frequency
			// and voltage, so per-item power grows with the number of
			// runnable items.
			k := len(fw.runningCPU)
			if k < 1 {
				k = 1
			}
			base *= 1 + alpha*float64(k-1)
		}
		return base
	}
}

// refreshCPUDraws re-prices every running CPU item after the concurrency
// level changes (DVFS model). A no-op when DVFSAlpha is zero.
func (fw *Framework) refreshCPUDraws() {
	if fw.profile.DVFSAlpha <= 0 {
		return
	}
	for _, w := range fw.runningCPU {
		w.handle.Set(w.drawW())
	}
}

// removeRunning drops w from the dense running-CPU list by swap-delete.
func (fw *Framework) removeRunning(w *workItem) {
	if w.runIdx < 0 {
		return
	}
	last := len(fw.runningCPU) - 1
	moved := fw.runningCPU[last]
	fw.runningCPU[w.runIdx] = moved
	moved.runIdx = w.runIdx
	fw.runningCPU[last] = nil
	fw.runningCPU = fw.runningCPU[:last]
	w.runIdx = -1
}

func (w *workItem) comp() power.Component {
	if w.kind == netWork {
		return power.Radio
	}
	return power.CPU
}

// start begins or resumes w.
func (w *workItem) start() {
	fw := w.proc.fw
	now := fw.engine.Now()
	// A network request paused past its socket timeout fails on resume
	// (paper §4.6: "when the execution resumes, an I/O exception due to
	// timeout might occur. But the app is already required to handle such
	// exception").
	if w.kind == netWork && w.err == nil && now-w.pausedAt > NetTimeout {
		w.err = ErrTimeout
		w.remaining = 0
	}
	w.running = true
	w.startedAt = now
	if w.kind == cpuWork {
		w.runIdx = int32(len(fw.runningCPU))
		fw.runningCPU = append(fw.runningCPU, w)
	}
	if w.handle == (power.DrawHandle{}) {
		w.handle = w.proc.owner.Handle(w.comp())
	}
	w.handle.Set(w.drawW())
	fw.refreshCPUDraws()
	w.doneEvent = fw.engine.Schedule(w.remaining, w.completeFn)
}

// pause suspends w, folding elapsed busy time into accounting.
func (w *workItem) pause() {
	fw := w.proc.fw
	now := fw.engine.Now()
	fw.engine.Cancel(w.doneEvent)
	w.doneEvent = 0
	elapsed := now - w.startedAt
	w.remaining -= elapsed
	if w.remaining < 0 {
		w.remaining = 0
	}
	if w.kind == cpuWork {
		w.proc.acct.cpuTime += elapsed
	}
	w.running = false
	w.pausedAt = now
	fw.removeRunning(w)
	w.handle.Set(0)
	fw.refreshCPUDraws()
}

// complete finishes w, recycles its slot, and invokes its callback. The
// callback runs after the slot has returned to the pool, so it may
// immediately schedule new work that reuses the slot.
func (w *workItem) complete() {
	fw := w.proc.fw
	p := w.proc
	if w.running {
		elapsed := fw.engine.Now() - w.startedAt
		if w.kind == cpuWork {
			p.acct.cpuTime += elapsed
		}
		w.handle.Set(0)
		w.running = false
		fw.removeRunning(w)
		fw.refreshCPUDraws()
		if w.kind == netWork {
			p.startRadioTail()
		}
	}
	onErr, onDone, err := w.onErr, w.onDone, w.err
	p.unlinkWork(w)
	fw.releaseWork(w)
	switch {
	case onErr != nil:
		onErr(err)
	case onDone != nil:
		onDone()
	}
}

// startRadioTail models the cellular radio's tail energy: after a transfer
// the radio lingers in a high-power state for RadioTailTime before dropping
// back to idle. Wi-Fi transfers have no tail (power-save re-engages
// immediately), and a new transfer within the tail simply refreshes it.
func (p *Process) startRadioTail() {
	fw := p.fw
	if fw.profile.RadioTailW <= 0 || fw.profile.RadioTailTime <= 0 {
		return
	}
	if fw.world.NetworkOnWiFi() || !fw.world.NetworkConnected() {
		return
	}
	if !p.tailHandle.Valid() {
		p.tailHandle = p.owner.Handle(power.Radio)
	}
	p.tailHandle.Set(fw.profile.RadioTailW)
	if p.tailEvent != 0 {
		fw.engine.Cancel(p.tailEvent)
	}
	if p.tailFn == nil {
		p.tailFn = p.endRadioTail
	}
	p.tailEvent = fw.engine.Schedule(fw.profile.RadioTailTime, p.tailFn)
}

// endRadioTail is the bound tail-expiry callback: one closure per process,
// created on the first tail, reused by every refresh.
func (p *Process) endRadioTail() {
	p.tailEvent = 0
	p.tailHandle.Clear()
}

// reevaluate starts or pauses work and flushes due timers per gating state.
//
// Its cost follows the items whose state must change, never the backlog
// (DESIGN.md §9 "Gating follows flips"): every linked item is in the state
// the previous call left it in, except the ones linked since, so unless
// canRun() has flipped only those are visited — a listener that keeps
// submitting to a sleeping process pays for the item it adds, not for the
// thousands it has queued. A flip walks the whole list in submission order,
// so items start, and take their engine sequence numbers, in the order they
// always did.
//
// The loops walk the live structures directly (no defensive copies): the
// work list cannot change mid-walk (start/pause run no user code), and the
// timer/alarm slices only grow during the walk — newly created entries
// have nothing pending, so visiting them is a no-op, and stops that land
// mid-walk are swept afterwards instead of shrinking the slice under the
// index.
func (p *Process) reevaluate() {
	run := p.canRun()
	w := p.workNew
	if run != p.workRunning {
		p.workRunning = run
		w = p.workHead
	}
	p.workNew = nil
	for ; w != nil; w = w.next {
		switch {
		case run && !w.running:
			w.start()
		case !run && w.running:
			w.pause()
		}
	}
	if p.pendingTicks == 0 {
		return
	}
	p.iter++
	if run {
		for i := 0; i < len(p.timers); i++ {
			p.timers[i].flush()
		}
	}
	for i := 0; i < len(p.alarms); i++ {
		p.alarms[i].flush()
	}
	p.iter--
	if p.iter == 0 && p.sweep {
		p.sweep = false
		p.sweepStopped()
	}
}

// sweepStopped compacts the timer and alarm slices, dropping stopped
// entries while preserving the order of survivors.
func (p *Process) sweepStopped() {
	stopped := func(t *timer) bool { return t.stopped }
	p.timers = slices.DeleteFunc(p.timers, stopped)
	p.alarms = slices.DeleteFunc(p.alarms, stopped)
}

// timer is a gated periodic callback; ticks that come due while the gate is
// shut are delivered once on the next opportunity. A plain timer fires only
// while the process can run (like a Handler on a sleeping CPU). An alarm
// (wake set) is the AlarmManager analogue: it fires even while the CPU is
// asleep (the alarm wakes the device momentarily), but it is still gated by
// the governor's background-work policy (Doze defers alarms to maintenance
// windows).
type timer struct {
	proc    *Process
	period  time.Duration
	fn      func()
	tick    func() // bound onTick, created once so each tick schedules alloc-free
	wake    bool
	stopped bool
	pending bool
	event   simclock.EventID
}

// Every schedules fn every period, gated on the process being runnable.
// The returned stop function cancels the timer.
func (p *Process) Every(period time.Duration, fn func()) (stop func()) {
	return p.every(period, fn, false)
}

// AlarmEvery schedules fn every period with wake-capable semantics. The
// returned stop function cancels the alarm.
func (p *Process) AlarmEvery(period time.Duration, fn func()) (stop func()) {
	return p.every(period, fn, true)
}

// After schedules fn once after delay, gated on the process being runnable.
func (p *Process) After(delay time.Duration, fn func()) (cancel func()) {
	return p.once(delay, fn, false)
}

// AlarmAfter schedules fn once after delay with wake-capable semantics.
func (p *Process) AlarmAfter(delay time.Duration, fn func()) (cancel func()) {
	return p.once(delay, fn, true)
}

func (p *Process) every(period time.Duration, fn func(), wake bool) (stop func()) {
	if period <= 0 {
		panic("appfw: Every / AlarmEvery period must be positive")
	}
	t := &timer{proc: p, period: period, fn: fn, wake: wake}
	t.tick = t.onTick
	list := t.list()
	*list = append(*list, t)
	t.schedule()
	return t.stop
}

func (p *Process) once(delay time.Duration, fn func(), wake bool) (cancel func()) {
	done := false
	var stop func()
	stop = p.every(delay, func() {
		if done {
			return
		}
		done = true
		stop()
		fn()
	}, wake)
	return func() {
		done = true
		stop()
	}
}

// list is the process slice t lives in.
func (t *timer) list() *[]*timer {
	if t.wake {
		return &t.proc.alarms
	}
	return &t.proc.timers
}

// allowed is t's gate.
func (t *timer) allowed() bool {
	p := t.proc
	if !t.wake {
		return p.canRun()
	}
	return !p.dead && (p.foreground || p.fw.gov.AllowBackgroundWork(p.uid))
}

func (t *timer) schedule() {
	t.event = t.proc.fw.engine.Schedule(t.period, t.tick)
}

// onTick is the engine-facing callback: one bound closure per timer,
// reused for every tick.
func (t *timer) onTick() {
	t.event = 0
	if t.stopped || t.proc.dead {
		return
	}
	if t.allowed() {
		t.fire()
	} else {
		t.setPending(true)
	}
}

// setPending records whether t holds an undelivered tick, keeping the
// process's count of such timers in step.
func (t *timer) setPending(pending bool) {
	if t.pending == pending {
		return
	}
	t.pending = pending
	if pending {
		t.proc.pendingTicks++
	} else {
		t.proc.pendingTicks--
	}
}

// fire runs the callback and schedules the next tick.
func (t *timer) fire() {
	t.setPending(false)
	t.fn()
	if !t.stopped && !t.proc.dead {
		t.schedule()
	}
}

// flush delivers a pending tick. reevaluate flushes plain timers only when
// it found the process runnable, deciding once for the whole walk — a
// callback that puts the CPU to sleep does not hold back the ticks behind it
// — whereas each alarm asks its gate itself.
func (t *timer) flush() {
	if t.pending && !t.stopped && (!t.wake || t.allowed()) {
		t.fire()
	}
}

// deactivate cancels the timer without touching the process's slices, so
// callers that are iterating them (reevaluate, Kill) stay safe.
func (t *timer) deactivate() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.setPending(false)
	if t.event != 0 {
		t.proc.fw.engine.Cancel(t.event)
		t.event = 0
	}
}

func (t *timer) stop() {
	if t.stopped {
		return
	}
	t.deactivate()
	if t.proc.iter > 0 {
		t.proc.sweep = true
		return
	}
	list := t.list()
	if i := slices.Index(*list, t); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
}

// ThrowException records one severe exception from p, the signal the lease
// manager's generic wakelock utility consumes (paper §6's
// ExceptionNoteHandler).
func (p *Process) ThrowException() {
	if !p.dead {
		p.acct.exceptions++
	}
}

// NoteUIUpdate records one UI update posted by p.
func (p *Process) NoteUIUpdate() {
	if !p.dead {
		p.acct.uiUpdates++
	}
}

// NoteInteraction records one user interaction delivered to p.
func (p *Process) NoteInteraction() {
	if !p.dead {
		p.acct.interactions++
	}
}

// Kill terminates the process: pending work and timers are dropped (their
// slots return to the pool with events cancelled, so no stale completion
// can ever touch a recycled slot), kernel objects die (releasing
// resources), and draws are cleared.
func (p *Process) Kill() {
	if p.dead {
		return
	}
	fw := p.fw
	for w := p.workHead; w != nil; {
		next := w.next
		if w.running {
			w.pause()
		}
		fw.releaseWork(w)
		w = next
	}
	p.workHead, p.workTail = nil, nil
	for i := 0; i < len(p.timers); i++ {
		p.timers[i].deactivate()
	}
	for i := 0; i < len(p.alarms); i++ {
		p.alarms[i].deactivate()
	}
	clear(p.timers)
	p.timers = p.timers[:0]
	clear(p.alarms)
	p.alarms = p.alarms[:0]
	p.dead = true
	if p.tailEvent != 0 {
		fw.engine.Cancel(p.tailEvent)
		p.tailEvent = 0
	}
	fw.registry.KillOwner(p.uid)
	fw.meter.ClearOwner(p.uid)
	p.acct.proc = nil
	fw.removeProc(p)
}
