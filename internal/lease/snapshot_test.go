package lease

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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
	mgr := NewManager(eng, newFakeStats(), Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 1, 10))
	eng.RunUntil(time.Second)
	st := mgr.CaptureState()
	st.Leases[0].HasCheck, st.Leases[0].CheckAt = true, math.MinInt64
	st.Leases[0].HasRestor, st.Leases[0].RestoreAt = true, math.MinInt64+1

	eng2 := simclock.NewEngine()
	eng2.RunUntil(time.Second)
	mgr2 := NewManager(eng2, newFakeStats(), Config{})
	if err := mgr2.RestoreState(st, func(ls LeaseState) (hooks.Object, bool) {
		return snapObj(ctrl, ls.ObjID, power.UID(ls.UID)), true
	}); err != nil {
		t.Fatal(err)
	}
	eng2.RunUntil(2 * time.Second) // both events fire, at once
	if mgr2.TermChecks == 0 {
		t.Fatal("the re-armed term check never fired")
	}
}
