package lease

import (
	"slices"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// AppStats supplies the app-level signals the manager folds into utility
// metrics. It is implemented by the app framework.
type AppStats interface {
	CPUTimeOf(uid power.UID) time.Duration
	ExceptionsOf(uid power.UID) int
	UIUpdatesOf(uid power.UID) int
	InteractionsOf(uid power.UID) int
}

// Lease is one lease in the manager's table (paper §4.3). Fields are read
// via accessors; mutation happens only inside the manager.
type Lease struct {
	id uint64

	// The leased kernel object: its ID and controller, and its holder and
	// kind held narrow beside the lease's state and held flag, in one word
	// (a lease of 152 bytes, not 168; the daemon's object that holds one, 240
	// not 256). UIDs are small in a simulation and issued densely from 1 by
	// the daemon, and every kind fits a byte.
	objID   uint64
	control hooks.Controller
	uid     int32
	kind    uint8
	state   State
	held    bool

	createdAt simclock.Time
	termStart simclock.Time
	term      time.Duration
	termIndex int

	normalStreak    int
	misbehaveStreak int
	escalation      int

	// last is the newest completed term's record, which no decision reads;
	// nil until a term completes, as for a lease renewed within each term.
	last *TermRecord

	// Snapshots of cumulative per-uid counters, for per-term deltas.
	lastCPU   time.Duration
	lastExc   int
	lastUI    int
	lastInter int

	// event is the one pending event, at due: the term check while the
	// lease is Active, the deferral's restore while it is Deferred, none
	// otherwise. Its handler is the manager, as leaseEvents, and its
	// argument the lease ID, so scheduling one allocates nothing. due lets
	// CaptureState re-arm the event on restore.
	event simclock.EventID
	due   simclock.Time
}

// ID returns the lease descriptor.
func (l *Lease) ID() uint64 { return l.id }

// State returns the current lease state.
func (l *Lease) State() State { return l.state }

// UID returns the lease holder.
func (l *Lease) UID() power.UID { return power.UID(l.uid) }

// Kind returns the leased resource kind.
func (l *Lease) Kind() hooks.Kind { return hooks.Kind(l.kind) }

// ObjectID returns the leased kernel object's ID.
func (l *Lease) ObjectID() uint64 { return l.objID }

// Terms returns how many terms have completed.
func (l *Lease) Terms() int { return l.termIndex }

// Manager is the LeaseOS lease manager: it creates, checks, renews, defers
// and removes leases for every resource in the system (paper §4.3), driven
// by lifecycle callbacks from the services and by per-term check events.
type Manager struct {
	clock runtime.Clock
	apps  AppStats
	cfg   Config

	leases leaseTable
	// byObj indexes live leases by kernel object for the object door (the
	// Governor methods and Create). It is derived from leases and built by
	// the first by-object call (indexObjects); until then it is nil and
	// nothing maintains it, so a caller that reports by handle, like the
	// daemon, never pays for it.
	byObj   map[uint64]uint64
	nextID  uint64
	proxies map[hooks.Kind]hooks.Controller

	counters    map[counterKey]UtilityCounter
	reputations map[power.UID]*reputation
	eubTime     map[power.UID]time.Duration

	// OnEvent, if set, hears every create, renew, term check, state
	// transition and remove, in the order they happen, from inside the
	// manager's call, so it must not call back into the manager. It is the
	// one report channel: Figure 13 charges lease accounting from it, and
	// Figure 5's edges, Figure 11's activity report, traces and per-lease
	// counts live in the closures their consumers install. Nil costs one
	// branch per report.
	OnEvent func(Event)

	// Lifetime statistics.
	createdTotal int
	deadTotal    int

	// Operation counters for the overhead analysis.
	TermChecks int
	Deferrals  int
	Renewals   int
	// TermAdaptations counts §5.2 common-case term growths (base → 1 min,
	// 1 min → 5 min); reversions to the base term are not adaptations.
	TermAdaptations int
}

type counterKey struct {
	uid  power.UID
	kind hooks.Kind
}

// NewManager creates a lease manager bound to a clock and app-stats source.
// cfg fields left zero take their defaults.
//
// The clock is any runtime.Clock: the discrete-event simulation engine for
// experiments, or a runtime.Wall for the networked daemon. The manager is
// not safe for concurrent use; on a wall clock every call must happen
// inside Wall.Do (the leased service enforces this).
func NewManager(clock runtime.Clock, apps AppStats, cfg Config) *Manager {
	return &Manager{
		clock:       clock,
		apps:        apps,
		cfg:         cfg.withDefaults(),
		proxies:     make(map[hooks.Kind]hooks.Controller),
		counters:    make(map[counterKey]UtilityCounter),
		reputations: make(map[power.UID]*reputation),
		eubTime:     make(map[power.UID]time.Duration),
	}
}

// Config returns the manager's effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// Reset returns the manager to its NewManager state — no leases, no
// reputation history, counters zeroed — while keeping map buckets and the
// lease table's capacity, so a recycled manager runs the next simulation
// without reallocating its tables. The caller has already reset the clock,
// so pending check/restore events need no cancellation.
func (m *Manager) Reset() {
	m.leases.reset()
	clear(m.byObj)
	clear(m.proxies)
	clear(m.counters)
	clear(m.reputations)
	clear(m.eubTime)
	m.nextID = 0
	m.OnEvent = nil
	m.createdTotal = 0
	m.deadTotal = 0
	m.TermChecks = 0
	m.Deferrals = 0
	m.Renewals = 0
	m.TermAdaptations = 0
}

// --- paper Table 3 interface ---

// Create makes a lease for the kernel object o and returns its descriptor,
// or returns the descriptor of o's live lease if it has one. It is normally
// invoked through the ObjectCreated hook; it is exported to mirror the
// paper's lease-proxy interface (Table 3).
func (m *Manager) Create(o hooks.Object) uint64 {
	if l := m.leaseOf(o); l != nil {
		return l.id
	}
	l := new(Lease)
	m.CreateLease(l, o)
	return l.id
}

// CreateLease makes a lease in l for the kernel object o, which must have no
// live lease: Create for a proxy that keeps the handle, without the
// by-object lookup. l is storage the caller provides, such as a field of its
// own record for o; whatever it held is overwritten, so it must not hold a
// live lease. The manager keeps l until the lease dies.
func (m *Manager) CreateLease(l *Lease, o hooks.Object) {
	m.nextID++
	now := m.clock.Now()
	*l = Lease{
		id: m.nextID, objID: o.ID, control: o.Control, uid: int32(o.UID), kind: uint8(o.Kind),
		state: Active, createdAt: now, termStart: now,
		term: m.cfg.Term, held: true,
		lastCPU:   m.apps.CPUTimeOf(o.UID),
		lastExc:   m.apps.ExceptionsOf(o.UID),
		lastUI:    m.apps.UIUpdatesOf(o.UID),
		lastInter: m.apps.InteractionsOf(o.UID),
	}
	m.leases.add(l)
	if m.byObj != nil {
		m.byObj[o.ID] = l.id
	}
	m.createdTotal++
	m.emit(l, Event{Op: EventCreate})
	m.applyReputation(l)
	m.scheduleCheck(l)
}

// leaseEvents is the manager as the simclock.Handler of its leases' events,
// a type of its own so that Fire stays out of the Manager's API.
type leaseEvents Manager

// Fire runs lease id's pending event: its term check while Active, its
// deferral's restore while Deferred. Every lease event is scheduled with
// the manager as its handler and the lease ID as its argument.
func (e *leaseEvents) Fire(id uint64) {
	m := (*Manager)(e)
	l := m.leases.get(id)
	l.event = 0
	if l.state == Deferred {
		m.restore(l)
	} else {
		m.endOfTerm(l)
	}
}

// Check reports whether the lease is active (Table 3's check): within a
// term, or deferred-but-valid. Dead or unknown leases report false.
func (m *Manager) Check(id uint64) bool {
	l := m.leases.get(id)
	return l != nil && l.state == Active
}

// emit reports ev about l to the sink, if there is one. It inlines, so a
// nil sink costs its callers one branch.
func (m *Manager) emit(l *Lease, ev Event) {
	if m.OnEvent != nil {
		m.send(l, ev)
	}
}

// send stamps ev with l's identity and the current instant for the sink.
func (m *Manager) send(l *Lease, ev Event) {
	ev.At, ev.Lease, ev.UID, ev.Kind = m.clock.Now(), l.id, l.UID(), l.Kind()
	m.OnEvent(ev)
}

// Renew explicitly renews a lease: an inactive lease returns to Active with
// a fresh base term (the paper's renewal-on-reacquire check). Renewing an
// active lease restarts its term. Deferred and dead leases cannot be
// renewed this way.
func (m *Manager) Renew(id uint64) bool {
	l := m.leases.get(id)
	return l != nil && m.renew(l)
}

func (m *Manager) renew(l *Lease) bool {
	if l.state == Dead || l.state == Deferred {
		return false
	}
	if l.state == Inactive {
		m.transition(l, Active, "renewed on re-acquire")
	}
	m.Renewals++
	m.emit(l, Event{Op: EventRenew})
	l.term = m.cfg.Term
	m.beginTerm(l)
	return true
}

// Remove destroys a lease outright (Table 3's remove), as when the holder
// process dies.
func (m *Manager) Remove(id uint64) bool {
	l := m.leases.get(id)
	if l == nil || l.state == Dead {
		return false
	}
	m.kill(l)
	return true
}

// SetUtility registers (or, with a nil counter, clears) a custom utility
// counter for every lease that uid holds on resources of the given kind —
// the app-facing setUtility API of Table 3.
func (m *Manager) SetUtility(uid power.UID, kind hooks.Kind, counter UtilityCounter) {
	key := counterKey{uid, kind}
	if counter == nil {
		delete(m.counters, key)
		return
	}
	m.counters[key] = counter
}

// RegisterProxy records the lease proxy (service controller) for a resource
// kind (Table 3's registerProxy). Registration is informational in this
// reproduction — object callbacks carry their controller — but keeping the
// proxy table preserves the paper's interface.
func (m *Manager) RegisterProxy(kind hooks.Kind, proxy hooks.Controller) bool {
	if proxy == nil {
		return false
	}
	m.proxies[kind] = proxy
	return true
}

// UnregisterProxy removes a registered proxy.
func (m *Manager) UnregisterProxy(kind hooks.Kind) bool {
	if _, ok := m.proxies[kind]; !ok {
		return false
	}
	delete(m.proxies, kind)
	return true
}

// --- hooks.Governor implementation (the lease proxies' upcall surface) ---

// ObjectCreated implements hooks.Governor: a lease is created when an app
// first accesses the kernel object (paper §3.1).
func (m *Manager) ObjectCreated(o hooks.Object) { m.Create(o) }

// ObjectReleased implements hooks.Governor. Release alone does not change
// lease state — the transition to Inactive happens at the end of the term
// if the resource is no longer held then (paper §3.2).
func (m *Manager) ObjectReleased(o hooks.Object) {
	if l := m.leaseOf(o); l != nil {
		m.Released(l)
	}
}

// ObjectReacquired implements hooks.Governor: re-acquiring with an expired
// (inactive) lease requires a renewal check; re-acquiring during a deferral
// just pretends to succeed (the service already handles the pretending).
func (m *Manager) ObjectReacquired(o hooks.Object) {
	l := m.leaseOf(o)
	if l == nil {
		// An object that was never leased (created before the manager was
		// attached): adopt it now.
		m.Create(o)
		return
	}
	m.Reacquired(l)
}

// ObjectDestroyed implements hooks.Governor: the lease enters the dead
// state and is cleaned (paper §3.2).
func (m *Manager) ObjectDestroyed(o hooks.Object) {
	if l := m.leaseOf(o); l != nil {
		m.Destroyed(l)
	}
}

// --- the same three upcalls by lease handle ---
//
// A proxy that keeps the *Lease it gave the manager for an object (to
// CreateLease, or to RestoreState's resolve) reports the object's lifecycle
// through these and skips the descriptor lookups; the Governor methods above
// are leaseOf followed by one of them, so both doors run the same code. l
// must be a live lease of this manager: a lease dies only through Destroyed,
// Remove or the holder's ObjectDestroyed, after which its handle must be
// dropped.

// Released is ObjectReleased for a lease already in hand.
func (m *Manager) Released(l *Lease) { l.held = false }

// Reacquired is ObjectReacquired for a lease already in hand.
func (m *Manager) Reacquired(l *Lease) {
	l.held = true
	if l.state == Inactive {
		m.renew(l)
	}
}

// Destroyed is ObjectDestroyed for a lease already in hand.
func (m *Manager) Destroyed(l *Lease) { m.kill(l) }

// AllowBackgroundWork implements hooks.Governor; LeaseOS never gates work
// directly — it acts through resource revocation.
func (m *Manager) AllowBackgroundWork(power.UID) bool { return true }

var (
	_ hooks.Governor   = (*Manager)(nil)
	_ simclock.Handler = (*leaseEvents)(nil)
)

// --- internals ---

func (m *Manager) leaseOf(o hooks.Object) *Lease {
	if m.byObj == nil {
		m.indexObjects()
	}
	id, ok := m.byObj[o.ID]
	if !ok {
		return nil
	}
	return m.leases.get(id)
}

// indexObjects builds byObj from the live leases.
func (m *Manager) indexObjects() {
	m.byObj = make(map[uint64]uint64, len(m.leases.ids))
	for _, l := range m.leases.ls {
		m.byObj[l.objID] = l.id
	}
}

func (m *Manager) transition(l *Lease, to State, reason string) {
	if m.OnEvent != nil {
		ev := Event{Op: EventTransition, From: l.state, To: to, Reason: reason}
		if to == Deferred {
			ev.Tau = l.due - m.clock.Now() // defer_ sets due first
		}
		m.send(l, ev)
	}
	l.state = to
}

// beginTerm starts a fresh term for an active lease.
func (m *Manager) beginTerm(l *Lease) {
	l.termStart = m.clock.Now()
	m.scheduleCheck(l)
}

func (m *Manager) scheduleCheck(l *Lease) {
	m.cancelEvent(l)
	l.due = m.clock.Now() + l.term
	l.event = m.clock.ScheduleHandler(l.term, (*leaseEvents)(m), l.id)
}

// cancelEvent drops the lease's pending event, if it has one.
func (m *Manager) cancelEvent(l *Lease) {
	if l.event != 0 {
		m.clock.Cancel(l.event)
		l.event = 0
	}
}

// endOfTerm is the heart of the mechanism: collect the term's stats,
// classify the behaviour, and decide the lease's fate (paper §3.2, §4.3).
func (m *Manager) endOfTerm(l *Lease) {
	if l.state != Active {
		return
	}
	now := m.clock.Now()
	termDur := now - l.termStart
	if termDur <= 0 {
		termDur = l.term
	}

	m.TermChecks++
	rec := m.collect(l, termDur)
	rec.Index = l.termIndex
	rec.Start = l.termStart
	l.termIndex++
	if l.last == nil {
		l.last = new(TermRecord)
	}
	*l.last = rec
	m.emit(l, Event{Op: EventTermCheck, Term: rec})

	if rec.Behavior.Misbehaving() {
		l.misbehaveStreak++
		l.normalStreak = 0
		if l.misbehaveStreak < m.cfg.MisbehaviorWindow {
			// Not yet enough history to act (§4.3's last-few-terms rule):
			// keep watching on the base term.
			l.term = m.cfg.Term
			if l.held {
				m.beginTerm(l)
			} else {
				m.transition(l, Inactive, "term ended with resource released")
			}
			return
		}
		m.repNote(l.UID(), true)
		m.defer_(l, rec)
		return
	}
	l.misbehaveStreak = 0

	// Normal (or EUB, which is never penalised — but EUB is surfaced via
	// EUBTimeOf so a user-facing layer can act on the paper's §8 "grey
	// area" with intent information LeaseOS itself lacks).
	if rec.Behavior == EUB {
		m.eubTime[l.UID()] += rec.Held
	}
	m.repNote(l.UID(), false)
	l.escalation = 0
	l.normalStreak++
	m.adaptTerm(l)

	if !l.held {
		// Resource no longer held: the lease rests until re-acquisition.
		m.transition(l, Inactive, "term ended with resource released")
		return
	}
	m.beginTerm(l)
}

// collect pulls the term statistics from the service and app framework and
// classifies them.
func (m *Manager) collect(l *Lease, termDur time.Duration) TermRecord {
	ts := l.control.TermStats(l.objID)

	cpu := m.apps.CPUTimeOf(l.UID())
	exc := m.apps.ExceptionsOf(l.UID())
	ui := m.apps.UIUpdatesOf(l.UID())
	inter := m.apps.InteractionsOf(l.UID())

	rec := TermRecord{
		Duration: termDur, Held: ts.Held, Active: ts.Active, Used: ts.Used,
		RequestTime: ts.RequestTime, FailedRequestTime: ts.FailedRequestTime,
		CPUTime: cpu - l.lastCPU, DataPoints: ts.DataPoints, DistanceM: ts.DistanceM,
		Exceptions: exc - l.lastExc, UIUpdates: ui - l.lastUI, Interactions: inter - l.lastInter,
	}
	l.lastCPU, l.lastExc, l.lastUI, l.lastInter = cpu, exc, ui, inter
	rec.classify(l.Kind(), m.counters[counterKey{l.UID(), l.Kind()}], m.cfg)
	return rec
}

// deferReasons are the constant transition reasons of the three behaviours
// that defer; concatenating one per deferral would allocate.
var deferReasons = [...]string{FAB: "term classified FAB", LHB: "term classified LHB", LUB: "term classified LUB"}

// defer_ moves the lease to the deferred state: the resource is temporarily
// revoked for τ and restored afterwards (paper §3.2, §4.6).
func (m *Manager) defer_(l *Lease, rec TermRecord) {
	tau := m.cfg.Tau
	if !m.cfg.NoTauEscalation {
		for i := 0; i < l.escalation; i++ {
			tau *= 2
			if tau >= m.cfg.TauMax {
				tau = m.cfg.TauMax
				break
			}
		}
		l.escalation++
	}
	l.normalStreak = 0
	l.term = m.cfg.Term // revert any adaptive growth
	m.Deferrals++

	l.due = m.clock.Now() + tau
	m.transition(l, Deferred, deferReasons[rec.Behavior])
	l.control.Suppress(l.objID)
	l.event = m.clock.ScheduleHandler(tau, (*leaseEvents)(m), l.id)
}

// restore ends a deferral: the capability and resource are restored and the
// lease becomes active again, unless the app released the resource during τ
// (in which case it rests as inactive).
func (m *Manager) restore(l *Lease) {
	if l.state != Deferred {
		return
	}
	l.control.Unsuppress(l.objID)
	// Discard stats accumulated during the deferral window so the next
	// term is judged on fresh behaviour.
	l.control.TermStats(l.objID)
	l.lastCPU = m.apps.CPUTimeOf(l.UID())
	l.lastExc = m.apps.ExceptionsOf(l.UID())
	l.lastUI = m.apps.UIUpdatesOf(l.UID())
	l.lastInter = m.apps.InteractionsOf(l.UID())

	if !l.held {
		m.transition(l, Inactive, "deferral ended with resource released")
		return
	}
	m.transition(l, Active, "deferral ended, resource restored")
	m.beginTerm(l)
}

// adaptTerm grows the term for consistently normal leases (paper §5.2).
func (m *Manager) adaptTerm(l *Lease) {
	if m.cfg.NoAdaptiveTerms {
		return
	}
	old := l.term
	switch {
	case l.normalStreak >= normalStreakForFiveMin:
		l.term = fiveMinuteTerm
	case l.normalStreak >= normalStreakForMinute:
		l.term = minuteTerm
	default:
		l.term = m.cfg.Term
	}
	if l.term > old {
		m.TermAdaptations++
	}
}

func (m *Manager) kill(l *Lease) {
	m.emit(l, Event{Op: EventRemove})
	m.cancelEvent(l)
	m.transition(l, Dead, "kernel object deallocated")
	m.deadTotal++
	if m.byObj != nil {
		delete(m.byObj, l.objID)
	}
	m.leases.remove(l.id)
}

// ForceTermCheck runs an end-of-term evaluation for the lease immediately,
// independent of its scheduled check. It exists for the Table 4 micro
// benchmark (the paper's "update" operation) and for interactive tooling;
// normal operation relies on the scheduled checks.
func (m *Manager) ForceTermCheck(id uint64) bool {
	l := m.leases.get(id)
	if l == nil || l.state != Active {
		return false
	}
	m.cancelEvent(l)
	m.endOfTerm(l)
	return true
}

// EUBTimeOf reports the cumulative resource-holding time uid spent in
// terms classified Excessive-Use. LeaseOS never penalises EUB (§4); this
// counter is the report-only observability hook motivated by §8's plan to
// "investigate inferring app and user intentions to tackle the
// Excessive-Use behavior".
func (m *Manager) EUBTimeOf(uid power.UID) time.Duration { return m.eubTime[uid] }

// ActiveLeaseCount reports how many leases are currently in the Active
// state (Figure 11's metric).
func (m *Manager) ActiveLeaseCount() int {
	n := 0
	for _, l := range m.leases.ls {
		if l.state == Active {
			n++
		}
	}
	return n
}

// LeaseCount reports how many live (non-dead) leases exist.
func (m *Manager) LeaseCount() int { return len(m.leases.ls) }

// CreatedTotal reports how many leases were ever created.
func (m *Manager) CreatedTotal() int { return m.createdTotal }

// LeaseByID returns a live lease, or nil.
func (m *Manager) LeaseByID(id uint64) *Lease { return m.leases.get(id) }

// Leases returns all live leases in ID order; the slice is fresh but the
// pointees are the manager's own records.
func (m *Manager) Leases() []*Lease { return slices.Clone(m.leases.ls) }

// leaseTable is the live leases in ID order, as two parallel slices: ids[i]
// is ls[i]'s ID, kept apart so a lookup's binary search reads 8 bytes a
// probe. IDs are issued in increasing order, so a new lease appends; a
// removal shifts the tail down one, keeping the order.
type leaseTable struct {
	ids []uint64
	ls  []*Lease
}

// get returns the live lease with this ID, or nil.
func (t *leaseTable) get(id uint64) *Lease {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		return t.ls[i]
	}
	return nil
}

// add appends l, whose ID must exceed every ID in the table.
func (t *leaseTable) add(l *Lease) {
	t.ids = append(t.ids, l.id)
	t.ls = append(t.ls, l)
}

// remove drops the lease with this ID, if the table holds it.
func (t *leaseTable) remove(id uint64) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.ls = slices.Delete(t.ls, i, i+1) // clears the vacated slot
	}
}

// reset empties the table, keeping its capacity.
func (t *leaseTable) reset() {
	t.ids = t.ids[:0]
	clear(t.ls)
	t.ls = t.ls[:0]
}
