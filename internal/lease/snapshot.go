package lease

// Crash-recovery support: EncodeState serializes the manager's complete
// mutable state — the lease table, reputation history and operation
// counters — in the shard snapshot's binary encoding,
// DecodeManagerState reads it back into plain exported structs,
// ValidateState refuses what cannot be rebuilt, and RestoreState rebuilds an
// empty manager from the rest, re-scheduling the pending term-check and
// deferral-restore events at their original due instants.
//
// This file is additive: the simulation path never calls it, so the
// experiment goldens are untouched. Encoding order is deterministic
// (leases by id, per-app tables by uid) so two encodings of equal state are
// byte-identical, which is what the leased daemon's crash-equality tests
// compare.
//
// Two pieces of manager state are deliberately out of scope, and the
// networked daemon that consumes this API uses neither: custom utility
// counters (live app callbacks — not serializable) and the OnEvent sink.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
	"repro/internal/snapenc"
)

// LeaseState is one lease's complete serialized state.
type LeaseState struct {
	ID    uint64 `json:"id"`
	ObjID uint64 `json:"obj_id"`
	UID   int    `json:"uid"`
	Kind  int    `json:"kind"`

	State     int           `json:"state"`
	CreatedAt simclock.Time `json:"created_at"`
	TermStart simclock.Time `json:"term_start"`
	Term      time.Duration `json:"term"`
	TermIndex int           `json:"term_index"`

	Held            bool `json:"held"`
	NormalStreak    int  `json:"normal_streak"`
	MisbehaveStreak int  `json:"misbehave_streak"`
	Escalation      int  `json:"escalation"`

	// Last is the newest completed term's record: present exactly when
	// TermIndex > 0.
	Last *TermRecord `json:"last,omitempty"`

	LastCPU   time.Duration `json:"last_cpu"`
	LastExc   int           `json:"last_exc"`
	LastUI    int           `json:"last_ui"`
	LastInter int           `json:"last_inter"`

	// Pending events, re-armed by RestoreState when the Has* flag is set:
	// a check only on an Active lease, a restore only on a Deferred one.
	HasCheck  bool          `json:"has_check,omitempty"`
	CheckAt   simclock.Time `json:"check_at,omitempty"`
	HasRestor bool          `json:"has_restore,omitempty"`
	RestoreAt simclock.Time `json:"restore_at,omitempty"`
}

// ReputationState is one app's serialized §8 usage history.
type ReputationState struct {
	UID       int `json:"uid"`
	Normals   int `json:"normals"`
	Deferrals int `json:"deferrals"`
}

// EUBState is one app's accumulated excessive-use holding time.
type EUBState struct {
	UID int           `json:"uid"`
	T   time.Duration `json:"t"`
}

// ManagerState is the manager's complete serialized state.
type ManagerState struct {
	NextID          uint64            `json:"next_id"`
	CreatedTotal    int               `json:"created_total"`
	DeadTotal       int               `json:"dead_total"`
	TermChecks      int               `json:"term_checks"`
	Deferrals       int               `json:"deferrals"`
	Renewals        int               `json:"renewals"`
	TermAdaptations int               `json:"term_adaptations"`
	Reputations     []ReputationState `json:"reputations,omitempty"`
	EUBTimes        []EUBState        `json:"eub_times,omitempty"`
	Leases          []LeaseState      `json:"leases,omitempty"`
}

// EncodeState walks the manager's live state into w — the one state walk:
// the daemon's checkpoint streams it straight to disk, and CaptureState is
// its decode. Iteration is deterministic (leases in their table's ID order,
// per-app tables by uid), so equal states produce equal bytes. Section order
// and field encodings are part of the shard snapshot format (DESIGN.md's
// layout table); changing either needs a version bump there.
func (m *Manager) EncodeState(w *snapenc.Writer) {
	w.Uvarint(m.nextID)
	w.Int(m.createdTotal)
	w.Int(m.deadTotal)
	w.Int(m.TermChecks)
	w.Int(m.Deferrals)
	w.Int(m.Renewals)
	w.Int(m.TermAdaptations)

	w.Uvarint(0) // retired: the dead leases' activity records, a list

	uids := make([]int, 0, len(m.reputations))
	for uid := range m.reputations {
		uids = append(uids, int(uid))
	}
	slices.Sort(uids)
	w.Uvarint(uint64(len(uids)))
	for _, uid := range uids {
		r := m.reputations[power.UID(uid)]
		w.Int(uid)
		w.Int(r.normals)
		w.Int(r.deferrals)
	}

	uids = uids[:0]
	for uid := range m.eubTime {
		uids = append(uids, int(uid))
	}
	slices.Sort(uids)
	w.Uvarint(uint64(len(uids)))
	for _, uid := range uids {
		w.Int(uid)
		w.Varint(int64(m.eubTime[power.UID(uid)]))
	}

	w.Uvarint(uint64(len(m.leases.ls)))
	for _, l := range m.leases.ls {
		l.encodeState(w)
	}
}

func (l *Lease) encodeState(w *snapenc.Writer) {
	w.Uvarint(l.id)
	w.Uvarint(l.objID)
	w.Int(int(l.UID()))
	w.Int(int(l.Kind()))
	w.Int(int(l.state))
	w.Varint(int64(l.createdAt))
	w.Varint(int64(l.termStart))
	w.Varint(int64(l.term))
	w.Int(l.termIndex)
	w.Bool(l.held)
	w.Int(l.normalStreak)
	w.Int(l.misbehaveStreak)
	w.Int(l.escalation)
	w.Varint(int64(l.lastCPU))
	w.Int(l.lastExc)
	w.Int(l.lastUI)
	w.Int(l.lastInter)
	// Pending events, the check's then the restore's: a presence byte, then
	// the due instant only if set. The state says which one is pending.
	restore := l.state == Deferred
	for _, pending := range [2]bool{l.event != 0 && !restore, l.event != 0 && restore} {
		w.Bool(pending)
		if pending {
			w.Varint(int64(l.due))
		}
	}
	// Retired: the instant the lease died and the four §7.2 activity
	// fields (last idle, idle total, active since, active total).
	for range 5 {
		w.Varint(0)
	}
	// Version 2's term-history list, now of at most one record: the newest.
	// Snapshot v3 (ROADMAP item 7) drops the count.
	if l.last == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(1)
	t := l.last
	w.Int(t.Index)
	w.Varint(int64(t.Start))
	w.Varint(int64(t.Duration))
	w.Varint(int64(t.Held))
	w.Varint(int64(t.Active))
	w.Varint(int64(t.Used))
	w.Varint(int64(t.RequestTime))
	w.Varint(int64(t.FailedRequestTime))
	w.Varint(int64(t.CPUTime))
	w.Int(t.DataPoints)
	w.Float64(t.DistanceM)
	w.Int(t.Exceptions)
	w.Int(t.UIUpdates)
	w.Int(t.Interactions)
	w.Float64(t.SuccessRatio)
	w.Float64(t.Utilization)
	w.Float64(t.UtilityScore)
	w.Int(int(t.Behavior))
}

// Minimum encoded sizes, for the decoder's count checks: one byte per
// varint or bool, eight per float.
const (
	minDeadRecordBytes = 2
	minReputationBytes = 3
	minEUBBytes        = 2
	minLeaseBytes      = 25
	minTermRecordBytes = 14 + 4*8
)

// DecodeManagerState reads what EncodeState wrote. Errors are the reader's
// (sticky); the caller checks r.Err or r.Done once its own sections are
// read too.
func DecodeManagerState(r *snapenc.Reader) ManagerState {
	st := ManagerState{
		NextID:          r.Uvarint(),
		CreatedTotal:    r.Int(),
		DeadTotal:       r.Int(),
		TermChecks:      r.Int(),
		Deferrals:       r.Int(),
		Renewals:        r.Int(),
		TermAdaptations: r.Int(),
	}
	for range r.Count(minDeadRecordBytes) { // retired: dead leases' activity records
		r.Varint()
		r.Int()
	}
	if n := r.Count(minReputationBytes); n > 0 {
		st.Reputations = make([]ReputationState, n)
		for i := range st.Reputations {
			st.Reputations[i] = ReputationState{UID: r.Int(), Normals: r.Int(), Deferrals: r.Int()}
		}
	}
	if n := r.Count(minEUBBytes); n > 0 {
		st.EUBTimes = make([]EUBState, n)
		for i := range st.EUBTimes {
			st.EUBTimes[i] = EUBState{UID: r.Int(), T: time.Duration(r.Varint())}
		}
	}
	if n := r.Count(minLeaseBytes); n > 0 {
		st.Leases = make([]LeaseState, n)
		for i := range st.Leases {
			decodeLeaseState(r, &st.Leases[i])
		}
	}
	return st
}

func decodeLeaseState(r *snapenc.Reader, ls *LeaseState) {
	ls.ID = r.Uvarint()
	ls.ObjID = r.Uvarint()
	ls.UID = r.Int()
	ls.Kind = r.Int()
	ls.State = r.Int()
	ls.CreatedAt = simclock.Time(r.Varint())
	ls.TermStart = simclock.Time(r.Varint())
	ls.Term = time.Duration(r.Varint())
	ls.TermIndex = r.Int()
	ls.Held = r.Bool()
	ls.NormalStreak = r.Int()
	ls.MisbehaveStreak = r.Int()
	ls.Escalation = r.Int()
	ls.LastCPU = time.Duration(r.Varint())
	ls.LastExc = r.Int()
	ls.LastUI = r.Int()
	ls.LastInter = r.Int()
	if ls.HasCheck = r.Bool(); ls.HasCheck {
		ls.CheckAt = simclock.Time(r.Varint())
	}
	if ls.HasRestor = r.Bool(); ls.HasRestor {
		ls.RestoreAt = simclock.Time(r.Varint())
	}
	for range 5 { // retired: dead_at and the four activity fields
		r.Varint()
	}
	// A build before the one-record form wrote up to 120 records, oldest
	// first; any count the input can hold reads, and the newest is kept.
	n := r.Count(minTermRecordBytes)
	if n == 0 {
		return
	}
	t := new(TermRecord)
	for range n {
		t.Index = r.Int()
		t.Start = simclock.Time(r.Varint())
		t.Duration = time.Duration(r.Varint())
		t.Held = time.Duration(r.Varint())
		t.Active = time.Duration(r.Varint())
		t.Used = time.Duration(r.Varint())
		t.RequestTime = time.Duration(r.Varint())
		t.FailedRequestTime = time.Duration(r.Varint())
		t.CPUTime = time.Duration(r.Varint())
		t.DataPoints = r.Int()
		t.DistanceM = r.Float64()
		t.Exceptions = r.Int()
		t.UIUpdates = r.Int()
		t.Interactions = r.Int()
		t.SuccessRatio = r.Float64()
		t.Utilization = r.Float64()
		t.UtilityScore = r.Float64()
		t.Behavior = Behavior(r.Int())
	}
	ls.Last = t
}

// CaptureState returns the manager's complete state as plain structs: the
// decode of EncodeState, so the two can never disagree about what a
// snapshot holds.
func (m *Manager) CaptureState() ManagerState {
	w := snapenc.NewWriter(nil)
	m.EncodeState(w)
	r := snapenc.NewReader(w.Payload())
	st := DecodeManagerState(r)
	if err := r.Done(); err != nil {
		panic("lease: EncodeState output does not decode: " + err.Error())
	}
	return st
}

// EncodeState writes the policy field by field, in the order the fields
// and the constants they replaced were once declared. A checkpoint pins the
// policy it was written under; the daemon refuses to reopen a data
// directory under a different one. The slots of the adaptive-term,
// classifier and reputation constants hold this build's values, and two
// retired fields — the term-history bound and the transition-log flag — are
// written as the constants every deployed policy held (120 and false), so
// builds on either side of a field's removal accept each other's
// checkpoints; snapshot v3 (ROADMAP item 7) drops the retired two.
func (c Config) EncodeState(w *snapenc.Writer) {
	w.Varint(int64(c.Term))
	w.Varint(int64(c.Tau))
	w.Bool(c.NoAdaptiveTerms)
	w.Int(normalStreakForMinute)
	w.Int(normalStreakForFiveMin)
	w.Varint(int64(minuteTerm))
	w.Varint(int64(fiveMinuteTerm))
	w.Int(c.MisbehaviorWindow)
	w.Bool(c.NoTauEscalation)
	w.Varint(int64(c.TauMax))
	for _, v := range classifierSlots {
		w.Float64(v)
	}
	w.Bool(c.NoExceptionSignal)
	w.Int(120) // retired: the term-history bound
	w.Bool(c.EnableReputation)
	w.Int(reputationDeferralFloor)
	w.Int(reputationTrustFloor)
	w.Bool(false) // retired: the transition-log flag
}

// DecodeConfig reads what Config.EncodeState wrote, skipping the two
// retired fields whatever they hold. ours is false when a constant's slot
// holds another value than this build's: the checkpoint was written under
// another policy, which no Config of this build can equal.
func DecodeConfig(r *snapenc.Reader) (c Config, ours bool) {
	ours = true
	pin := func(same bool) { ours = ours && same }
	c.Term = time.Duration(r.Varint())
	c.Tau = time.Duration(r.Varint())
	c.NoAdaptiveTerms = r.Bool()
	pin(r.Int() == normalStreakForMinute)
	pin(r.Int() == normalStreakForFiveMin)
	pin(time.Duration(r.Varint()) == minuteTerm)
	pin(time.Duration(r.Varint()) == fiveMinuteTerm)
	c.MisbehaviorWindow = r.Int()
	c.NoTauEscalation = r.Bool()
	c.TauMax = time.Duration(r.Varint())
	for _, v := range classifierSlots {
		pin(r.Float64() == v)
	}
	c.NoExceptionSignal = r.Bool()
	r.Int() // retired: the term-history bound
	c.EnableReputation = r.Bool()
	pin(r.Int() == reputationDeferralFloor)
	pin(r.Int() == reputationTrustFloor)
	r.Bool() // retired: the transition-log flag
	return c, ours
}

// ErrLeaseID refuses a capture whose lease IDs are not strictly increasing
// or exceed its next ID: the manager issues IDs in order and never twice, so
// a repeated ID would overwrite a lease whose object still holds its term
// check, and one past next_id would be issued again.
var ErrLeaseID = errors.New("lease IDs must be strictly increasing and at most next_id")

// ErrPendingEvent refuses a capture whose lease has a pending event its
// state cannot have: a lease awaits its term check only while Active and
// its restore only while Deferred, so it never has both.
var ErrPendingEvent = errors.New("a lease's pending event must match its state")

// ValidateState refuses a capture RestoreState cannot build faithfully: lease
// IDs out of order or past next_id (ErrLeaseID), a completed-term count that
// disagrees with the last record's presence, an unknown state, a pending
// event the lease's state cannot have (ErrPendingEvent), and a holder past
// 32 bits or an unknown kind. It reads only st.
func ValidateState(st ManagerState) error {
	var prev uint64 // IDs are issued from 1
	for _, ls := range st.Leases {
		if ls.ID <= prev || ls.ID > st.NextID {
			return fmt.Errorf("lease: ValidateState: lease %d after lease %d with next_id %d: %w", ls.ID, prev, st.NextID, ErrLeaseID)
		}
		prev = ls.ID
		if (ls.TermIndex > 0) != (ls.Last != nil) {
			return fmt.Errorf("lease: ValidateState: lease %d has %d completed terms but last record present = %v", ls.ID, ls.TermIndex, ls.Last != nil)
		}
		state := State(ls.State)
		switch {
		case ls.State < int(Active) || ls.State > int(Dead):
			return fmt.Errorf("lease: ValidateState: lease %d has unknown state %d", ls.ID, ls.State)
		case ls.HasCheck && state != Active, ls.HasRestor && state != Deferred:
			return fmt.Errorf("lease: ValidateState: lease %d is %v with a pending check %v and restore %v: %w", ls.ID, state, ls.HasCheck, ls.HasRestor, ErrPendingEvent)
		case ls.UID < 0 || ls.UID > math.MaxInt32 || ls.Kind < 0 || ls.Kind >= hooks.NumKinds:
			// A lease holds its holder and kind narrow.
			return fmt.Errorf("lease: ValidateState: lease %d has uid %d and kind %d, which a lease cannot hold", ls.ID, ls.UID, ls.Kind)
		}
	}
	return nil
}

// RestoreState builds a freshly-created manager from a capture ValidateState
// accepted; resolve maps each serialized lease to the storage its lease is
// rebuilt in and to its live kernel object (the caller owns the object table
// and its Controller), as CreateLease takes them. Pending term checks and
// deferral restores are re-scheduled at their captured due instants, so the
// restored manager's future evolution matches the captured one's. It panics
// on a manager that already holds state.
func (m *Manager) RestoreState(st ManagerState, resolve func(LeaseState) (*Lease, hooks.Object)) {
	if len(m.leases.ls) != 0 || m.createdTotal != 0 {
		panic("lease: RestoreState on a non-empty manager")
	}
	m.nextID = st.NextID
	m.createdTotal = st.CreatedTotal
	m.deadTotal = st.DeadTotal
	m.TermChecks = st.TermChecks
	m.Deferrals = st.Deferrals
	m.Renewals = st.Renewals
	m.TermAdaptations = st.TermAdaptations
	for _, r := range st.Reputations {
		m.reputations[power.UID(r.UID)] = &reputation{normals: r.Normals, deferrals: r.Deferrals}
	}
	for _, e := range st.EUBTimes {
		m.eubTime[power.UID(e.UID)] = e.T
	}
	m.leases.ids = slices.Grow(m.leases.ids, len(st.Leases))
	m.leases.ls = slices.Grow(m.leases.ls, len(st.Leases))
	now := m.clock.Now()
	for _, ls := range st.Leases {
		l, obj := resolve(ls)
		*l = Lease{
			id: ls.ID, objID: obj.ID, control: obj.Control, uid: int32(obj.UID), kind: uint8(obj.Kind),
			state: State(ls.State), createdAt: ls.CreatedAt, termStart: ls.TermStart,
			term: ls.Term, termIndex: ls.TermIndex,
			held: ls.Held, normalStreak: ls.NormalStreak,
			misbehaveStreak: ls.MisbehaveStreak, escalation: ls.Escalation,
			lastCPU: ls.LastCPU, lastExc: ls.LastExc, lastUI: ls.LastUI, lastInter: ls.LastInter,
		}
		if ls.Last != nil {
			rec := *ls.Last
			l.last = &rec
		}
		m.leases.add(l)
		if ls.HasCheck || ls.HasRestor {
			l.due = ls.CheckAt
			if ls.HasRestor {
				l.due = ls.RestoreAt
			}
			l.event = m.clock.ScheduleHandler(until(now, l.due), (*leaseEvents)(m), l.id)
		}
	}
}

// until is the delay from now to at, zero for an instant already past. The
// comparison comes first: a corrupt capture's instant may lie so far back
// that the subtraction would wrap.
func until(now, at simclock.Time) time.Duration {
	if at <= now {
		return 0
	}
	return at - now
}
