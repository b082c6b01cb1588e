package lease

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/stats"
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
	id  uint64
	obj hooks.Object

	state     State
	held      bool
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
	// otherwise. fire is its callback, bound once per lease (bindEvent) so
	// per-term scheduling never allocates a closure; it dispatches on the
	// state. due lets CaptureState re-arm the event on restore.
	event simclock.EventID
	fire  func()
	due   simclock.Time

	// bookkeeping for the §7.2 lease-activity report
	lastIdle    simclock.Time
	idleTotal   time.Duration
	activeSince simclock.Time
	activeTotal time.Duration
}

// ID returns the lease descriptor.
func (l *Lease) ID() uint64 { return l.id }

// State returns the current lease state.
func (l *Lease) State() State { return l.state }

// UID returns the lease holder.
func (l *Lease) UID() power.UID { return l.obj.UID }

// Kind returns the leased resource kind.
func (l *Lease) Kind() hooks.Kind { return l.obj.Kind }

// Terms returns how many terms have completed.
func (l *Lease) Terms() int { return l.termIndex }

// Manager is the LeaseOS lease manager: it creates, checks, renews, defers
// and removes leases for every resource in the system (paper §4.3), driven
// by lifecycle callbacks from the services and by per-term check events.
type Manager struct {
	clock runtime.Clock
	apps  AppStats
	cfg   Config

	leases  map[uint64]*Lease
	byObj   map[objKey]uint64
	nextID  uint64
	proxies map[hooks.Kind]hooks.Controller

	counters    map[counterKey]UtilityCounter
	reputations map[power.UID]*reputation
	eubTime     map[power.UID]time.Duration

	// OnEvent, if set, hears every create, renew, term check, state
	// transition and remove, in the order they happen, from inside the
	// manager's call, so it must not call back into the manager. It is the
	// one report channel: Figure 13 charges lease accounting from it, and
	// Figure 5's edges, traces and per-lease counts live in the closures
	// their consumers install. Nil costs one branch per report.
	OnEvent func(Event)

	// Lifetime statistics for the §7.2 report.
	createdTotal int
	deadTotal    int
	deadRecords  []ActivityRecord

	// Operation counters for the overhead analysis.
	TermChecks int
	Deferrals  int
	Renewals   int
	// TermAdaptations counts §5.2 common-case term growths (base → 1 min,
	// 1 min → 5 min); reversions to the base term are not adaptations.
	TermAdaptations int
}

type objKey struct {
	service string
	id      uint64
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
		leases:      make(map[uint64]*Lease),
		byObj:       make(map[objKey]uint64),
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
// dead-record slice capacity, so a recycled manager runs the next
// simulation without reallocating its tables. The caller has already reset
// the clock, so pending check/restore events need no cancellation.
func (m *Manager) Reset() {
	for k := range m.leases {
		delete(m.leases, k)
	}
	for k := range m.byObj {
		delete(m.byObj, k)
	}
	for k := range m.proxies {
		delete(m.proxies, k)
	}
	for k := range m.counters {
		delete(m.counters, k)
	}
	for k := range m.reputations {
		delete(m.reputations, k)
	}
	for k := range m.eubTime {
		delete(m.eubTime, k)
	}
	m.nextID = 0
	m.OnEvent = nil
	m.createdTotal = 0
	m.deadTotal = 0
	m.deadRecords = m.deadRecords[:0]
	m.TermChecks = 0
	m.Deferrals = 0
	m.Renewals = 0
	m.TermAdaptations = 0
}

// --- paper Table 3 interface ---

// Create makes a lease for the kernel object o and returns its descriptor.
// It is normally invoked through the ObjectCreated hook; it is exported to
// mirror the paper's lease-proxy interface (Table 3).
func (m *Manager) Create(o hooks.Object) uint64 {
	key := objKey{o.Control.ServiceName(), o.ID}
	if id, ok := m.byObj[key]; ok {
		return id
	}
	m.nextID++
	now := m.clock.Now()
	l := &Lease{
		id: m.nextID, obj: o,
		state: Active, createdAt: now, termStart: now,
		activeSince: now,
		term:        m.cfg.Term, held: true,
		lastCPU:   m.apps.CPUTimeOf(o.UID),
		lastExc:   m.apps.ExceptionsOf(o.UID),
		lastUI:    m.apps.UIUpdatesOf(o.UID),
		lastInter: m.apps.InteractionsOf(o.UID),
	}
	l.bindEvent(m)
	m.leases[l.id] = l
	m.byObj[key] = l.id
	m.createdTotal++
	m.emit(l, Event{Op: EventCreate})
	m.applyReputation(l)
	m.scheduleCheck(l)
	return l.id
}

// bindEvent creates the lease's event callback, paid once at creation so
// that every term check and deferral schedules allocation-free.
func (l *Lease) bindEvent(m *Manager) {
	l.fire = func() {
		l.event = 0
		if l.state == Deferred {
			m.restore(l)
		} else {
			m.endOfTerm(l)
		}
	}
}

// Check reports whether the lease is active (Table 3's check): within a
// term, or deferred-but-valid. Dead or unknown leases report false.
func (m *Manager) Check(id uint64) bool {
	l, ok := m.leases[id]
	if !ok {
		return false
	}
	return l.state == Active
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
	ev.At, ev.Lease, ev.UID, ev.Kind = m.clock.Now(), l.id, l.obj.UID, l.obj.Kind
	m.OnEvent(ev)
}

// Renew explicitly renews a lease: an inactive lease returns to Active with
// a fresh base term (the paper's renewal-on-reacquire check). Renewing an
// active lease restarts its term. Deferred and dead leases cannot be
// renewed this way.
func (m *Manager) Renew(id uint64) bool {
	l, ok := m.leases[id]
	return ok && m.renew(l)
}

func (m *Manager) renew(l *Lease) bool {
	if l.state == Dead || l.state == Deferred {
		return false
	}
	if l.state == Inactive {
		l.idleTotal += m.clock.Now() - l.lastIdle
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
	l, ok := m.leases[id]
	if !ok || l.state == Dead {
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
// A proxy that keeps the *Lease it was given for an object (LeaseByID, right
// after Create or RestoreState) reports the object's lifecycle through these
// and skips the descriptor lookups; the Governor methods above are leaseOf
// followed by one of them, so both doors run the same code. l must be a
// live lease of this manager: a lease dies only through Destroyed, Remove or
// the holder's ObjectDestroyed, after which its handle must be dropped.

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

var _ hooks.Governor = (*Manager)(nil)

// --- internals ---

func (m *Manager) leaseOf(o hooks.Object) *Lease {
	id, ok := m.byObj[objKey{o.Control.ServiceName(), o.ID}]
	if !ok {
		return nil
	}
	return m.leases[id]
}

func (m *Manager) transition(l *Lease, to State, reason string) {
	now := m.clock.Now()
	ev := Event{Op: EventTransition, From: l.state, To: to, Reason: reason}
	if to == Deferred {
		ev.Tau = l.due - now // defer_ sets due first
	}
	m.emit(l, ev)
	// Maintain the per-lease active-time accumulator for the §7.2 report.
	if l.state == Active && to != Active {
		l.activeTotal += now - l.activeSince
	} else if l.state != Active && to == Active {
		l.activeSince = now
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
	l.event = m.clock.Schedule(l.term, l.fire)
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
				l.lastIdle = now
				m.transition(l, Inactive, "term ended with resource released")
			}
			return
		}
		m.repNote(l.obj.UID, true)
		m.defer_(l, rec)
		return
	}
	l.misbehaveStreak = 0

	// Normal (or EUB, which is never penalised — but EUB is surfaced via
	// EUBTimeOf so a user-facing layer can act on the paper's §8 "grey
	// area" with intent information LeaseOS itself lacks).
	if rec.Behavior == EUB {
		m.eubTime[l.obj.UID] += rec.Held
	}
	m.repNote(l.obj.UID, false)
	l.escalation = 0
	l.normalStreak++
	m.adaptTerm(l)

	if !l.held {
		// Resource no longer held: the lease rests until re-acquisition.
		l.lastIdle = now
		m.transition(l, Inactive, "term ended with resource released")
		return
	}
	m.beginTerm(l)
}

// collect pulls the term statistics from the service and app framework and
// classifies them.
func (m *Manager) collect(l *Lease, termDur time.Duration) TermRecord {
	ts := l.obj.Control.TermStats(l.obj.ID)

	cpu := m.apps.CPUTimeOf(l.obj.UID)
	exc := m.apps.ExceptionsOf(l.obj.UID)
	ui := m.apps.UIUpdatesOf(l.obj.UID)
	inter := m.apps.InteractionsOf(l.obj.UID)

	in := termInputs{
		kind:              l.obj.Kind,
		term:              termDur,
		held:              ts.Held,
		active:            ts.Active,
		used:              ts.Used,
		requestTime:       ts.RequestTime,
		failedRequestTime: ts.FailedRequestTime,
		cpuTime:           cpu - l.lastCPU,
		dataPoints:        ts.DataPoints,
		distanceM:         ts.DistanceM,
		exceptions:        exc - l.lastExc,
		uiUpdates:         ui - l.lastUI,
		interactions:      inter - l.lastInter,
		custom:            m.counters[counterKey{l.obj.UID, l.obj.Kind}],
	}
	l.lastCPU, l.lastExc, l.lastUI, l.lastInter = cpu, exc, ui, inter

	return classify(in, m.cfg)
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
	l.obj.Control.Suppress(l.obj.ID)
	l.event = m.clock.Schedule(tau, l.fire)
}

// restore ends a deferral: the capability and resource are restored and the
// lease becomes active again, unless the app released the resource during τ
// (in which case it rests as inactive).
func (m *Manager) restore(l *Lease) {
	if l.state != Deferred {
		return
	}
	l.obj.Control.Unsuppress(l.obj.ID)
	// Discard stats accumulated during the deferral window so the next
	// term is judged on fresh behaviour.
	l.obj.Control.TermStats(l.obj.ID)
	l.lastCPU = m.apps.CPUTimeOf(l.obj.UID)
	l.lastExc = m.apps.ExceptionsOf(l.obj.UID)
	l.lastUI = m.apps.UIUpdatesOf(l.obj.UID)
	l.lastInter = m.apps.InteractionsOf(l.obj.UID)

	if !l.held {
		l.lastIdle = m.clock.Now()
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
	case l.normalStreak >= m.cfg.NormalStreakForFiveMin:
		l.term = m.cfg.FiveMinuteTerm
	case l.normalStreak >= m.cfg.NormalStreakForMinute:
		l.term = m.cfg.MinuteTerm
	default:
		l.term = m.cfg.Term
	}
	if l.term > old {
		m.TermAdaptations++
	}
}

func (m *Manager) kill(l *Lease) {
	m.emit(l, Event{Op: EventRemove})
	m.deadRecords = append(m.deadRecords, ActivityRecord{
		Active: l.ActiveTime(m.clock.Now()), Terms: l.termIndex,
	})
	m.cancelEvent(l)
	m.transition(l, Dead, "kernel object deallocated")
	m.deadTotal++
	delete(m.byObj, objKey{l.obj.Control.ServiceName(), l.obj.ID})
	delete(m.leases, l.id)
}

// ForceTermCheck runs an end-of-term evaluation for the lease immediately,
// independent of its scheduled check. It exists for the Table 4 micro
// benchmark (the paper's "update" operation) and for interactive tooling;
// normal operation relies on the scheduled checks.
func (m *Manager) ForceTermCheck(id uint64) bool {
	l, ok := m.leases[id]
	if !ok || l.state != Active {
		return false
	}
	m.cancelEvent(l)
	m.endOfTerm(l)
	return true
}

// --- reporting (paper §7.2's lease-activity measurements) ---

// ActiveTime reports how long the lease has spent in the Active state up
// to now.
func (l *Lease) ActiveTime(now simclock.Time) time.Duration {
	t := l.activeTotal
	if l.state == Active {
		t += now - l.activeSince
	}
	return t
}

// ActivityRecord summarises one lease's lifetime for the activity report.
type ActivityRecord struct {
	Active time.Duration
	Terms  int
}

// ActivityReport aggregates lease activity, reproducing the paper's §7.2
// measurements ("160 leases are created. Most leases are short-lived, with
// a median active period of 5 seconds. But the max period is 18 minutes.
// The average number of lease terms are 4, and max 52").
type ActivityReport struct {
	Created      int
	MedianActive time.Duration
	MaxActive    time.Duration
	MeanTerms    float64
	MaxTerms     int
}

// Activity computes the report over every lease ever created.
func (m *Manager) Activity() ActivityReport {
	now := m.clock.Now()
	records := append([]ActivityRecord(nil), m.deadRecords...)
	for _, l := range m.leases {
		records = append(records, ActivityRecord{Active: l.ActiveTime(now), Terms: l.termIndex})
	}
	rep := ActivityReport{Created: m.createdTotal}
	if len(records) == 0 {
		return rep
	}
	actives := make([]float64, len(records))
	termSum := 0
	for i, r := range records {
		actives[i] = float64(r.Active)
		termSum += r.Terms
		if r.Terms > rep.MaxTerms {
			rep.MaxTerms = r.Terms
		}
	}
	// Median and max are two quantiles of one series: one sort, one pass.
	qs := stats.Percentiles(actives, 50, 100)
	rep.MedianActive = time.Duration(qs[0])
	rep.MaxActive = time.Duration(qs[1])
	rep.MeanTerms = float64(termSum) / float64(len(records))
	return rep
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
	for _, l := range m.leases {
		if l.state == Active {
			n++
		}
	}
	return n
}

// LeaseCount reports how many live (non-dead) leases exist.
func (m *Manager) LeaseCount() int { return len(m.leases) }

// CreatedTotal reports how many leases were ever created.
func (m *Manager) CreatedTotal() int { return m.createdTotal }

// LeaseByID returns a live lease, or nil.
func (m *Manager) LeaseByID(id uint64) *Lease { return m.leases[id] }

// Leases returns all live leases; the slice is fresh but the pointees are
// the manager's own records.
func (m *Manager) Leases() []*Lease {
	ls := make([]*Lease, 0, len(m.leases))
	for _, l := range m.leases {
		ls = append(ls, l)
	}
	return ls
}
