package lease

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
	"repro/internal/snapenc"
)

// snapCtrl is a deliberately stateless Controller: every term pull reports a
// fully-held window, so the classification an object receives depends only
// on the app-stats feed. Statelessness matters here — the restored manager
// binds to a *different* controller instance, and the two runs must still
// observe identical term stats.
type snapCtrl struct{ suppressed map[uint64]bool }

func newSnapCtrl() *snapCtrl { return &snapCtrl{suppressed: map[uint64]bool{}} }

func (c *snapCtrl) Suppress(id uint64)   { c.suppressed[id] = true }
func (c *snapCtrl) Unsuppress(id uint64) { delete(c.suppressed, id) }
func (c *snapCtrl) TermStats(id uint64) hooks.TermStats {
	return hooks.TermStats{Held: 5 * time.Second, Active: 5 * time.Second}
}

func snapObj(ctrl *snapCtrl, id uint64, uid power.UID) hooks.Object {
	return hooks.Object{ID: id, UID: uid, Kind: hooks.Wakelock, Control: ctrl}
}

// TestCaptureRestoreRoundTrip drives a manager into a state with every
// serialized facet populated — an active lease with a pending term check, a
// deferred lease with a pending restore, a destroyed lease's count,
// reputation history — then checks that (a) the capture survives a
// JSON round trip (the -dump-snapshot view), (b) a fresh manager restored
// from it captures — and encodes — identically, and (c) both managers evolve
// identically afterwards.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, Config{})
	ctrl := newSnapCtrl()

	mgr.Create(snapObj(ctrl, 1, 10)) // idle holder: LHB -> deferred at 5s
	mgr.Create(snapObj(ctrl, 2, 20)) // busy holder: stays active
	mgr.Create(snapObj(ctrl, 3, 30)) // destroyed early: counted dead
	stopFeed := eng.Ticker(time.Second, func() { stats.cpu[20] += 500 * time.Millisecond })
	defer stopFeed()

	eng.RunUntil(1 * time.Second)
	mgr.ObjectDestroyed(snapObj(ctrl, 3, 30))
	eng.RunUntil(7 * time.Second)

	st := mgr.CaptureState()
	if !reflect.DeepEqual(st, mgr.CaptureState()) {
		t.Fatal("back-to-back captures differ")
	}
	var deferred, active bool
	for _, ls := range st.Leases {
		deferred = deferred || (State(ls.State) == Deferred && ls.HasRestor)
		active = active || (State(ls.State) == Active && ls.HasCheck)
	}
	if !deferred || !active {
		t.Fatalf("scenario missing a pending event shape: deferred=%v active=%v", deferred, active)
	}
	if len(st.Leases) != 2 || st.DeadTotal != 1 {
		t.Fatalf("%d live leases, %d dead, want 2 and 1", len(st.Leases), st.DeadTotal)
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ManagerState
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, decoded) {
		t.Fatal("capture did not survive a JSON round trip")
	}

	// Rebuild on a fresh engine advanced to the capture instant.
	eng2 := simclock.NewEngine()
	eng2.RunUntil(7 * time.Second)
	stats2 := newFakeStats()
	for uid, v := range stats.cpu {
		stats2.cpu[uid] = v
	}
	mgr2 := NewManager(eng2, stats2, Config{})
	ctrl2 := newSnapCtrl()
	if err := ValidateState(decoded); err != nil {
		t.Fatal(err)
	}
	mgr2.RestoreState(decoded, func(ls LeaseState) (*Lease, hooks.Object) {
		if State(ls.State) == Deferred {
			ctrl2.suppressed[ls.ObjID] = true
		}
		return new(Lease), snapObj(ctrl2, ls.ObjID, power.UID(ls.UID))
	})
	if got := mgr2.CaptureState(); !reflect.DeepEqual(st, got) {
		t.Fatalf("restored capture differs:\n pre: %+v\npost: %+v", st, got)
	}
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("restored manager encodes to different bytes")
	}

	// Both managers must now evolve in lockstep: the deferred lease is
	// restored at 30s (before being re-deferred at its 35s term check), the
	// busy lease keeps renewing.
	stopFeed2 := eng2.Ticker(time.Second, func() { stats2.cpu[20] += 500 * time.Millisecond })
	defer stopFeed2()
	eng.RunUntil(32 * time.Second)
	eng2.RunUntil(32 * time.Second)
	a, b := mgr.CaptureState(), mgr2.CaptureState()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("evolution diverged after restore:\n orig: %+v\nrest: %+v", a, b)
	}
	for _, ls := range b.Leases {
		if State(ls.State) == Deferred {
			t.Fatalf("lease %d still deferred at 32s", ls.ID)
		}
	}
	if len(ctrl2.suppressed) != 0 {
		t.Fatalf("restored controller still suppressing %v after tau", ctrl2.suppressed)
	}
	eng.RunUntil(40 * time.Second)
	eng2.RunUntil(40 * time.Second)
	if !reflect.DeepEqual(mgr.CaptureState(), mgr2.CaptureState()) {
		t.Fatal("evolution diverged between 32s and 40s")
	}
}

func encodeManager(m *Manager) []byte {
	w := snapenc.NewWriter(nil)
	m.EncodeState(w)
	return w.Payload()
}

// TestConfigRoundTripEveryField sets every field of Config to a distinct
// non-zero value by reflection, so a field added to the policy but not to
// its codec — which would let a changed policy reopen old journals
// unnoticed — fails here.
func TestConfigRoundTripEveryField(t *testing.T) {
	var c Config
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000003 * (i + 1)))
		case reflect.Float64:
			f.SetFloat(0.125 * float64(i+1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Config.%s: kind %s has no snapshot encoding", v.Type().Field(i).Name, f.Kind())
		}
	}
	w := snapenc.NewWriter(nil)
	c.EncodeState(w)
	r := snapenc.NewReader(w.Payload())
	got, ours := DecodeConfig(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !ours {
		t.Fatal("this build's own encoding decodes as another policy")
	}
	if got != c {
		t.Fatalf("Config changed across its codec:\n got %+v\nwant %+v", got, c)
	}
}

func TestRestoreRejectsNonEmptyManager(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	st := mgr.CaptureState()
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreState built over a non-empty manager")
		}
	}()
	mgr.RestoreState(st, func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(ctrl, ls.ObjID, power.UID(ls.UID))
	})
}

// TestRestoreSurvivesInstantsFarInThePast: a capture comes from disk or a
// peer, so a due instant may be any int64. One so far back that "due minus
// now" wraps around must re-arm as already due, not as a delay that carries
// the clock past the end of time (the engine panics on that).
func TestRestoreSurvivesInstantsFarInThePast(t *testing.T) {
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10)) // idle holder: deferred at 5s
	mgr.Create(snapObj(ctrl, 2, 20)) // busy holder: stays active
	stop := eng.Ticker(time.Second, func() { stats.cpu[20] += 500 * time.Millisecond })
	defer stop()
	eng.RunUntil(7 * time.Second)
	st := mgr.CaptureState()
	for i := range st.Leases {
		switch ls := &st.Leases[i]; {
		case ls.HasCheck:
			ls.CheckAt = math.MinInt64
		case ls.HasRestor:
			ls.RestoreAt = math.MinInt64 + 1
		}
	}
	if State(st.Leases[0].State) != Deferred || State(st.Leases[1].State) != Active {
		t.Fatalf("states %v and %v, want DEFERRED and ACTIVE", State(st.Leases[0].State), State(st.Leases[1].State))
	}

	eng2 := simclock.NewEngine()
	eng2.RunUntil(7 * time.Second)
	mgr2 := NewManager(eng2, stats, Config{})
	if err := ValidateState(st); err != nil {
		t.Fatal(err)
	}
	mgr2.RestoreState(st, func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(ctrl, ls.ObjID, power.UID(ls.UID))
	})
	eng2.RunUntil(7*time.Second + time.Millisecond) // both events fire, at once
	if mgr2.TermChecks == st.TermChecks {
		t.Fatal("the re-armed term check never fired")
	}
	if mgr2.LeaseByID(st.Leases[0].ID).State() == Deferred {
		t.Fatal("the re-armed restore never fired")
	}
}

// TestRestoreRefusesPendingEventItsStateCannotHave: a lease awaits its term
// check only while Active and its restore only while Deferred, so the one
// event a lease keeps is told apart by its state. A capture that breaks that
// — a check on a lease not Active, a restore on one not Deferred, or both
// events at once — is refused, not re-armed.
func TestRestoreRefusesPendingEventItsStateCannotHave(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	good := mgr.CaptureState()
	for _, tc := range []struct {
		state            State
		check, restoring bool
	}{
		{Active, true, true},
		{Active, false, true},
		{Inactive, true, false},
		{Inactive, false, true},
		{Deferred, true, false},
		{Deferred, true, true},
		{Dead, true, false},
		{Dead, false, true},
	} {
		st := good
		st.Leases = append([]LeaseState(nil), good.Leases...)
		ls := &st.Leases[0]
		ls.State, ls.HasCheck, ls.HasRestor, ls.CheckAt, ls.RestoreAt = int(tc.state), tc.check, tc.restoring, time.Second, time.Second
		if err := ValidateState(st); !errors.Is(err, ErrPendingEvent) {
			t.Errorf("%v with check %v, restore %v: err = %v, want ErrPendingEvent", tc.state, tc.check, tc.restoring, err)
		}
	}
	if err := ValidateState(good); err != nil {
		t.Fatalf("the unmodified capture: %v", err)
	}
}

// TestRestoreRefusesUnknownState: a State is one byte, so a decoded state
// past Dead — 256 would wrap to Active — is refused, not truncated.
func TestRestoreRefusesUnknownState(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	for _, state := range []int{int(Dead) + 1, 256, -1} {
		st := mgr.CaptureState()
		st.Leases[0].State, st.Leases[0].HasCheck = state, false
		if err := ValidateState(st); err == nil || !strings.Contains(err.Error(), "unknown state") {
			t.Errorf("state %d: err = %v, want an unknown state", state, err)
		}
	}
}

// writeV2 writes a manager state in the form builds before the one-record
// lease wrote it: each lease's term history is a list of hist[id], oldest
// first. With diary set, it also fills the retired §7.2 slots as builds that
// kept the activity report did: two dead leases' records, and each lease's
// last idle, idle total, active since and active total. With hist holding
// only each lease's Last and diary unset, it is this build's form: an empty
// dead-record list and a 0 in each of a lease's five retired slots.
func writeV2(w *snapenc.Writer, st ManagerState, hist map[uint64][]TermRecord, diary bool) {
	w.Uvarint(st.NextID)
	for _, n := range []int{st.CreatedTotal, st.DeadTotal, st.TermChecks, st.Deferrals, st.Renewals, st.TermAdaptations} {
		w.Int(n)
	}
	if diary {
		w.Uvarint(2)
		w.Varint(int64(7 * time.Second))
		w.Int(3)
		w.Varint(int64(time.Minute))
		w.Int(12)
	} else {
		w.Uvarint(0)
	}
	w.Uvarint(uint64(len(st.Reputations)))
	for _, r := range st.Reputations {
		w.Int(r.UID)
		w.Int(r.Normals)
		w.Int(r.Deferrals)
	}
	w.Uvarint(uint64(len(st.EUBTimes)))
	for _, e := range st.EUBTimes {
		w.Int(e.UID)
		w.Varint(int64(e.T))
	}
	w.Uvarint(uint64(len(st.Leases)))
	for _, ls := range st.Leases {
		w.Uvarint(ls.ID)
		w.Uvarint(ls.ObjID)
		for _, n := range []int{ls.UID, ls.Kind, ls.State} {
			w.Int(n)
		}
		w.Varint(int64(ls.CreatedAt))
		w.Varint(int64(ls.TermStart))
		w.Varint(int64(ls.Term))
		w.Int(ls.TermIndex)
		w.Bool(ls.Held)
		w.Int(ls.NormalStreak)
		w.Int(ls.MisbehaveStreak)
		w.Int(ls.Escalation)
		w.Varint(int64(ls.LastCPU))
		w.Int(ls.LastExc)
		w.Int(ls.LastUI)
		w.Int(ls.LastInter)
		w.Bool(ls.HasCheck)
		if ls.HasCheck {
			w.Varint(int64(ls.CheckAt))
		}
		w.Bool(ls.HasRestor)
		if ls.HasRestor {
			w.Varint(int64(ls.RestoreAt))
		}
		w.Varint(0) // dead_at, retired before the diary
		for i := range 4 {
			if diary {
				w.Varint(int64(ls.ID)*int64(time.Second) + int64(i))
			} else {
				w.Varint(0)
			}
		}
		w.Uvarint(uint64(len(hist[ls.ID])))
		for _, t := range hist[ls.ID] {
			w.Int(t.Index)
			for _, d := range []time.Duration{t.Start, t.Duration, t.Held, t.Active, t.Used, t.RequestTime, t.FailedRequestTime, t.CPUTime} {
				w.Varint(int64(d))
			}
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
	}
}

// TestParentFormDecodesToNewest: a payload in the form builds before the
// one-record lease wrote — three term records per lease, activity values in
// the retired §7.2 slots, a term-history bound of 120 and no transition log
// in the policy — decodes to each lease's newest record and restores to a
// manager that writes the one-record form with zeros in those slots; and this build writes the same policy bytes those builds
// wrote, so either side reopens the other's checkpoints.
func TestParentFormDecodesToNewest(t *testing.T) {
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10)) // idle: deferred
	mgr.Create(snapObj(ctrl, 2, 20)) // busy: renewed
	stop := eng.Ticker(time.Second, func() { stats.cpu[20] += 500 * time.Millisecond })
	defer stop()
	eng.RunUntil(3 * time.Minute)
	mgr.Create(snapObj(ctrl, 3, 30)) // no completed term
	st := mgr.CaptureState()

	three, newest := map[uint64][]TermRecord{}, map[uint64][]TermRecord{}
	for _, ls := range st.Leases {
		if ls.Last == nil {
			continue
		}
		old1, old2 := *ls.Last, *ls.Last
		old1.Index, old1.UtilityScore, old1.Behavior = ls.Last.Index-2, 1, FAB
		old2.Index, old2.Exceptions = ls.Last.Index-1, 99
		three[ls.ID] = []TermRecord{old1, old2, *ls.Last}
		newest[ls.ID] = []TermRecord{*ls.Last}
	}
	if len(three) != 2 {
		t.Fatalf("%d leases with completed terms, want 2", len(three))
	}
	w := snapenc.NewWriter(nil)
	writeV2(w, st, three, true)
	r := snapenc.NewReader(w.Payload())
	got := DecodeManagerState(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("the three-record form decodes to\n%+v\nwant\n%+v", got, st)
	}
	mgr2 := NewManager(eng, newFakeStats(), Config{})
	if err := ValidateState(got); err != nil {
		t.Fatal(err)
	}
	mgr2.RestoreState(got, func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(newSnapCtrl(), ls.ObjID, power.UID(ls.UID))
	})
	w = snapenc.NewWriter(nil)
	writeV2(w, st, newest, false)
	if again := encodeManager(mgr2); !bytes.Equal(again, w.Payload()) || !bytes.Equal(again, encodeManager(mgr)) {
		t.Fatal("the restored manager does not write the one-record form")
	}

	// The policy: those builds wrote its fields in declaration order,
	// the term-history bound (default 120) after NoExceptionSignal and the
	// transition-log flag (default false) last. The adaptive-term,
	// classifier and reputation slots, fields then and constants now, hold
	// the paper's values as literals, so this pins this build's constants
	// to those builds' bytes.
	c := DefaultConfig()
	w = snapenc.NewWriter(nil)
	w.Varint(int64(c.Term))
	w.Varint(int64(c.Tau))
	w.Bool(c.NoAdaptiveTerms)
	w.Int(12)
	w.Int(120)
	w.Varint(int64(time.Minute))
	w.Varint(int64(5 * time.Minute))
	w.Int(c.MisbehaviorWindow)
	w.Bool(c.NoTauEscalation)
	w.Varint(int64(c.TauMax))
	for _, f := range []float64{0.05, 25, 0.2, 0.3, 0.5, 0.5, 20} {
		w.Float64(f)
	}
	w.Bool(c.NoExceptionSignal)
	w.Int(120)
	w.Bool(c.EnableReputation)
	w.Int(3)
	w.Int(120)
	w.Bool(false)
	parent := w.Payload()
	r = snapenc.NewReader(parent)
	if got, ours := DecodeConfig(r); r.Done() != nil || !ours || got != c {
		t.Fatalf("the older builds' policy bytes decode to %+v (ours %v, %v), want %+v", got, ours, r.Err(), c)
	}
	w = snapenc.NewWriter(nil)
	c.EncodeState(w)
	if !bytes.Equal(w.Payload(), parent) {
		t.Fatal("this build writes the default policy in other bytes than older builds")
	}
}

// TestRestoreRejectsTermRecordMismatch: a lease's completed-term count and
// the presence of its last record must agree.
func TestRestoreRejectsTermRecordMismatch(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	mgr.Create(snapObj(ctrl, 2, 20))
	eng.RunUntil(6 * time.Second)
	for _, tc := range []struct {
		name    string
		corrupt func(*LeaseState)
	}{
		{"terms without a record", func(ls *LeaseState) { ls.Last = nil }},
		{"a record without terms", func(ls *LeaseState) { ls.TermIndex = 0 }},
	} {
		st := mgr.CaptureState()
		tc.corrupt(&st.Leases[1])
		if err := ValidateState(st); err == nil || !strings.Contains(err.Error(), "lease 2 has") {
			t.Errorf("%s: ValidateState err = %v", tc.name, err)
		}
	}
}

// TestRestoreRefusesWhatALeaseCannotHold: a lease keeps its holder in 32
// bits and its kind in a byte, so a capture with a holder or a kind past
// those, or a kind no resource has, is refused rather than truncated.
func TestRestoreRefusesWhatALeaseCannotHold(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	mgr.Create(snapObj(ctrl, 2, 20))
	for _, tc := range []struct {
		name    string
		corrupt func(*LeaseState)
	}{
		{"uid past 32 bits", func(ls *LeaseState) { ls.UID = 1 << 40 }},
		{"negative uid", func(ls *LeaseState) { ls.UID = -1 }},
		{"kind 300", func(ls *LeaseState) { ls.Kind = 300 }},
		{"unknown kind", func(ls *LeaseState) { ls.Kind = hooks.NumKinds }},
	} {
		st := mgr.CaptureState()
		tc.corrupt(&st.Leases[1])
		if err := ValidateState(st); err == nil || !strings.Contains(err.Error(), "which a lease cannot hold") {
			t.Errorf("%s: ValidateState err = %v", tc.name, err)
		}
	}
	if err := ValidateState(mgr.CaptureState()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesRepeatedOrUnissuedLeaseID: the manager issues lease IDs
// in order and never twice, so a capture's leases must have strictly rising
// IDs no greater than its next ID. A repeated row would overwrite the first
// lease while its term check stays armed on the object, and an ID past
// next_id would be issued again by the next create.
func TestRestoreRefusesRepeatedOrUnissuedLeaseID(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	for id := uint64(1); id <= 3; id++ {
		mgr.Create(snapObj(ctrl, id, power.UID(10*id)))
	}
	good := mgr.CaptureState()
	for _, tc := range []struct {
		name    string
		corrupt func(*ManagerState)
	}{
		{"a repeated row", func(st *ManagerState) { st.Leases = append(st.Leases, st.Leases[2]) }},
		{"a repeated ID", func(st *ManagerState) { st.Leases[1].ID = 1 }},
		{"falling IDs", func(st *ManagerState) { st.Leases[0], st.Leases[2] = st.Leases[2], st.Leases[0] }},
		{"ID 0", func(st *ManagerState) { st.Leases[0].ID = 0 }},
		{"an ID past next_id", func(st *ManagerState) { st.Leases[2].ID = st.NextID + 1 }},
		{"next_id below the last ID", func(st *ManagerState) { st.NextID = 2 }},
	} {
		st := good
		st.Leases = append([]LeaseState(nil), good.Leases...)
		tc.corrupt(&st)
		if err := ValidateState(st); !errors.Is(err, ErrLeaseID) {
			t.Errorf("%s: err = %v, want ErrLeaseID", tc.name, err)
		}
	}
	if err := ValidateState(good); err != nil {
		t.Fatalf("the unmodified capture: %v", err)
	}
	restored := NewManager(simclock.NewEngine(), newFakeStats(), Config{})
	restored.RestoreState(good, func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(ctrl, ls.ObjID, power.UID(ls.UID))
	})
	if l := createLease(restored, snapObj(ctrl, 4, 40)); l.ID() != good.NextID+1 {
		t.Fatalf("the restored manager issued lease %d, want %d", l.ID(), good.NextID+1)
	}
}

// TestRefusedRestoreLeavesNothing: a capture refused at its last row is
// refused before anything is built. ValidateState reads only the capture, so
// the rows before the bad one never reach a table or a clock and the capture
// comes back as it went in; the same capture without its bad row builds all
// three leases with their events armed.
func TestRefusedRestoreLeavesNothing(t *testing.T) {
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, Config{})
	ctrl := newSnapCtrl()
	for id := uint64(1); id <= 3; id++ {
		mgr.Create(snapObj(ctrl, id, power.UID(10*id)))
	}
	stop := eng.Ticker(time.Second, func() { stats.cpu[20] += 500 * time.Millisecond })
	defer stop()
	eng.RunUntil(7 * time.Second)
	good := mgr.CaptureState()
	armed := 0
	for _, ls := range good.Leases {
		if ls.HasCheck || ls.HasRestor {
			armed++
		}
	}
	if len(good.Leases) != 3 || armed == 0 || good.TermChecks == 0 || len(good.Reputations) == 0 {
		t.Fatalf("the capture holds %d leases, %d armed, %d term checks, %d reputations; want 3 leases and some of each", len(good.Leases), armed, good.TermChecks, len(good.Reputations))
	}
	st := good
	st.Leases = append(slices.Clone(good.Leases), good.Leases[2]) // IDs 1, 2, 3, 3
	before := slices.Clone(st.Leases)
	if err := ValidateState(st); !errors.Is(err, ErrLeaseID) {
		t.Fatalf("err = %v, want ErrLeaseID", err)
	}
	if !reflect.DeepEqual(st.Leases, before) {
		t.Error("ValidateState changed the capture it refused")
	}

	eng2 := simclock.NewEngine()
	fresh := NewManager(eng2, newFakeStats(), Config{})
	fresh.RestoreState(good, func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(ctrl, ls.ObjID, power.UID(ls.UID))
	})
	if n, events := len(fresh.leases.ls), eng2.Len(); n != 3 || events != armed {
		t.Errorf("the capture without its bad row built %d leases and %d events, want 3 and %d", n, events, armed)
	}
}
