package lease

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
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
func (c *snapCtrl) ServiceName() string { return "snaptest" }

func snapObj(ctrl *snapCtrl, id uint64, uid power.UID) hooks.Object {
	return hooks.Object{ID: id, UID: uid, Kind: hooks.Wakelock, Control: ctrl}
}

// TestCaptureRestoreRoundTrip drives a manager into a state with every
// serialized facet populated — an active lease with a pending term check, a
// deferred lease with a pending restore, a destroyed lease's activity
// record, reputation history — then checks that (a) the capture survives a
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
	mgr.Create(snapObj(ctrl, 3, 30)) // destroyed early: dead record
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
	if len(st.DeadRecords) != 1 || st.DeadTotal != 1 {
		t.Fatalf("dead records = %d total = %d, want 1/1", len(st.DeadRecords), st.DeadTotal)
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
	err = mgr2.RestoreState(decoded, func(ls LeaseState) (hooks.Object, bool) {
		if State(ls.State) == Deferred {
			ctrl2.suppressed[ls.ObjID] = true
		}
		return snapObj(ctrl2, ls.ObjID, power.UID(ls.UID)), true
	})
	if err != nil {
		t.Fatal(err)
	}
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
	got := DecodeConfig(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
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
	if err := mgr.RestoreState(st, func(ls LeaseState) (hooks.Object, bool) {
		return snapObj(ctrl, ls.ObjID, power.UID(ls.UID)), true
	}); err == nil {
		t.Fatal("RestoreState accepted a non-empty manager")
	}
}

func TestRestoreRejectsUnknownObject(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	st := mgr.CaptureState()

	mgr2 := NewManager(simclock.NewEngine(), newFakeStats(), Config{})
	if err := mgr2.RestoreState(st, func(LeaseState) (hooks.Object, bool) {
		return hooks.Object{}, false
	}); err == nil {
		t.Fatal("RestoreState accepted an unresolvable lease")
	}
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
	if err := mgr2.RestoreState(st, func(ls LeaseState) (hooks.Object, bool) {
		return snapObj(ctrl, ls.ObjID, power.UID(ls.UID)), true
	}); err != nil {
		t.Fatal(err)
	}
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
	resolve := func(ls LeaseState) (hooks.Object, bool) { return snapObj(ctrl, ls.ObjID, power.UID(ls.UID)), true }
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
		err := NewManager(simclock.NewEngine(), newFakeStats(), Config{}).RestoreState(st, resolve)
		if !errors.Is(err, ErrPendingEvent) {
			t.Errorf("%v with check %v, restore %v: err = %v, want ErrPendingEvent", tc.state, tc.check, tc.restoring, err)
		}
	}
	if err := NewManager(simclock.NewEngine(), newFakeStats(), Config{}).RestoreState(good, resolve); err != nil {
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
		err := NewManager(simclock.NewEngine(), newFakeStats(), Config{}).RestoreState(st, func(ls LeaseState) (hooks.Object, bool) {
			return snapObj(ctrl, ls.ObjID, power.UID(ls.UID)), true
		})
		if err == nil || !strings.Contains(err.Error(), "unknown state") {
			t.Errorf("state %d: err = %v, want an unknown state", state, err)
		}
	}
}

// writeV2 writes a manager state in the form builds before the one-record
// lease wrote it: each lease's term history is a list of hist[id], oldest
// first. With hist holding only each lease's Last, it is this build's form.
func writeV2(w *snapenc.Writer, st ManagerState, hist map[uint64][]TermRecord) {
	w.Uvarint(st.NextID)
	for _, n := range []int{st.CreatedTotal, st.DeadTotal, st.TermChecks, st.Deferrals, st.Renewals, st.TermAdaptations} {
		w.Int(n)
	}
	w.Uvarint(uint64(len(st.DeadRecords)))
	for _, d := range st.DeadRecords {
		w.Varint(int64(d.Active))
		w.Int(d.Terms)
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
		for _, t := range []time.Duration{ls.DeadAt, ls.LastIdle, ls.IdleTotal, ls.ActiveSince, ls.ActiveTotal} {
			w.Varint(int64(t))
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
// one-record lease wrote — three term records per lease, a term-history
// bound of 120 and no transition log in the policy — decodes to each
// lease's newest record and restores to a manager that writes the
// one-record form; and this build writes the same policy bytes those builds
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
	writeV2(w, st, three)
	r := snapenc.NewReader(w.Payload())
	got := DecodeManagerState(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("the three-record form decodes to\n%+v\nwant\n%+v", got, st)
	}
	mgr2 := NewManager(eng, newFakeStats(), Config{})
	if err := mgr2.RestoreState(got, func(ls LeaseState) (hooks.Object, bool) {
		return snapObj(newSnapCtrl(), ls.ObjID, power.UID(ls.UID)), true
	}); err != nil {
		t.Fatal(err)
	}
	w = snapenc.NewWriter(nil)
	writeV2(w, st, newest)
	if again := encodeManager(mgr2); !bytes.Equal(again, w.Payload()) || !bytes.Equal(again, encodeManager(mgr)) {
		t.Fatal("the restored manager does not write the one-record form")
	}

	// The policy: those builds wrote its fields in declaration order,
	// the term-history bound (default 120) after NoExceptionSignal and the
	// transition-log flag (default false) last.
	c := DefaultConfig()
	w = snapenc.NewWriter(nil)
	w.Varint(int64(c.Term))
	w.Varint(int64(c.Tau))
	w.Bool(c.NoAdaptiveTerms)
	w.Int(c.NormalStreakForMinute)
	w.Int(c.NormalStreakForFiveMin)
	w.Varint(int64(c.MinuteTerm))
	w.Varint(int64(c.FiveMinuteTerm))
	w.Int(c.MisbehaviorWindow)
	w.Bool(c.NoTauEscalation)
	w.Varint(int64(c.TauMax))
	for _, f := range []float64{c.UtilizationThreshold, c.UtilityThreshold, c.FABSuccessThreshold, c.FABMinAskFraction, c.LHBHoldFraction, c.EUBUtilizationFloor, c.CustomUtilityFloor} {
		w.Float64(f)
	}
	w.Bool(c.NoExceptionSignal)
	w.Int(120)
	w.Bool(c.EnableReputation)
	w.Int(c.ReputationDeferralFloor)
	w.Int(c.ReputationTrustFloor)
	w.Bool(false)
	parent := w.Payload()
	r = snapenc.NewReader(parent)
	if got := DecodeConfig(r); r.Done() != nil || got != c {
		t.Fatalf("the older builds' policy bytes decode to %+v (%v), want %+v", got, r.Err(), c)
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
		err := NewManager(simclock.NewEngine(), newFakeStats(), Config{}).RestoreState(st, func(ls LeaseState) (hooks.Object, bool) {
			return snapObj(ctrl, ls.ObjID, power.UID(ls.UID)), true
		})
		if err == nil || !strings.Contains(err.Error(), "lease 2 has") {
			t.Errorf("%s: RestoreState err = %v", tc.name, err)
		}
	}
}
