package lease

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// TestSinkSeesEveryTerm: over six hours of a healthy lease — past the 120
// terms a bounded history once held — a counting sink hears exactly Terms()
// term checks, in index order, each classified as the lease was, and the
// newest is the record Explain reads.
func TestSinkSeesEveryTerm(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "busy")
	wl.Acquire()
	stop := r.engine.Ticker(time.Second, func() { r.stats.cpu[10] += 300 * time.Millisecond })
	defer stop()
	r.engine.RunUntil(6 * time.Hour)

	l := r.mgr.Leases()[0]
	checks := r.ops(EventTermCheck)
	if len(checks) != l.Terms() || l.Terms() <= 120 {
		t.Fatalf("sink heard %d term checks of %d terms; want all of them, past 120", len(checks), l.Terms())
	}
	counts := map[Behavior]int{}
	for i, ev := range checks {
		if ev.Term.Index != i || ev.Lease != l.ID() {
			t.Fatalf("term check %d = lease %d term #%d", i, ev.Lease, ev.Term.Index)
		}
		counts[ev.Term.Behavior]++
	}
	if counts[Normal] != l.Terms() {
		t.Fatalf("behaviours %v over %d terms, want all Normal", counts, l.Terms())
	}
	if e := r.mgr.Explanation(l); !e.HasLast || e.Last != checks[len(checks)-1].Term {
		t.Fatalf("Explanation's last = %+v (%v), want the newest term check's record", e.Last, e.HasLast)
	}
}

// TestSinkAllocatesNothing: with a sink installed, a steady lease's term
// check, deferral and restore allocate nothing — the events are values.
func TestSinkAllocatesNothing(t *testing.T) {
	eng := simclock.NewEngine()
	mgr := NewManager(eng, newFakeStats(), Config{NoTauEscalation: true})
	heard := map[string]int{}
	mgr.OnEvent = func(ev Event) { heard[ev.Op]++ }
	mgr.Create(snapObj(newSnapCtrl(), 1, 10)) // an idle holder: LHB every term
	// Deferred at 5 s, then every 30 s a restore and, 5 s on, a term check
	// that defers again.
	eng.RunUntil(time.Minute)
	clear(heard)
	const runs = 10
	window := func() { eng.RunUntil(eng.Now() + 30*time.Second) }
	if allocs := testing.AllocsPerRun(runs, window); allocs != 0 {
		t.Errorf("a term check, deferral and restore allocate %v times", allocs)
	}
	if heard[EventTermCheck] != runs+1 || heard[EventTransition] != 2*(runs+1) {
		t.Fatalf("the sink heard %v over %d windows, want a term check and two transitions in each", heard, runs+1)
	}
}

// TestNewestRecordRestores: a lease past many terms restores to one that
// encodes the same bytes, explains the same last term and keeps evolving in
// step.
func TestNewestRecordRestores(t *testing.T) {
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, Config{})
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 2, 20))
	feed := func(e *simclock.Engine, s *fakeStats) func() {
		return e.Ticker(time.Second, func() { s.cpu[20] += 500 * time.Millisecond })
	}
	defer feed(eng, stats)()
	eng.RunUntil(2 * time.Minute)
	if l := mgr.Leases()[0]; l.Terms() <= 3 {
		t.Fatalf("after 2 minutes the lease has %d terms", l.Terms())
	}

	eng2 := simclock.NewEngine()
	eng2.RunUntil(2 * time.Minute)
	stats2 := newFakeStats()
	stats2.cpu[20] = stats.cpu[20]
	mgr2 := NewManager(eng2, stats2, Config{})
	ctrl2 := newSnapCtrl()
	mgr2.RestoreState(mgr.CaptureState(), func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(ctrl2, ls.ObjID, power.UID(ls.UID))
	})
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("restored manager encodes to different bytes")
	}
	defer feed(eng2, stats2)()
	eng.RunUntil(4 * time.Minute)
	eng2.RunUntil(4 * time.Minute)
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("evolution diverged after restore")
	}
	if got, want := mgr2.Explain(1), mgr.Explain(1); got != want {
		t.Fatalf("restored Explain:\n%s\nwant:\n%s", got, want)
	}
}

// lineEvents are one event of each op, as a manager reports them.
func lineEvents() []Event {
	at := simclock.Time(35 * time.Second)
	return []Event{
		{At: at, Op: EventCreate, Lease: 1, UID: 10, Kind: hooks.GPSListener},
		{At: at, Op: EventRenew, Lease: 1, UID: 10, Kind: hooks.GPSListener},
		{At: at, Op: EventTermCheck, Lease: 1, UID: 10, Kind: hooks.GPSListener, Term: rec(FAB)},
		{At: at, Op: EventTermCheck, Lease: 2, UID: 10, Kind: hooks.Wakelock, Term: rec(LHB)},
		{At: at, Op: EventTransition, Lease: 1, UID: 10, Kind: hooks.GPSListener,
			From: Active, To: Deferred, Reason: deferReasons[FAB], Tau: 25 * time.Second},
		{At: at, Op: EventTransition, Lease: 1, UID: 10, Kind: hooks.GPSListener,
			From: Deferred, To: Active, Reason: "deferral ended, resource restored"},
		{At: at, Op: EventRemove, Lease: 1, UID: 10, Kind: hooks.GPSListener},
	}
}

// TestEventLineAllocatesNothing: rendering an event of any op into a buffer
// with room allocates nothing, so a sink under a lock can write its lines.
func TestEventLineAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, ev := range lineEvents() {
		if allocs := testing.AllocsPerRun(100, func() { buf = AppendEventLine(buf[:0], ev) }); allocs != 0 {
			t.Errorf("%s line allocates %v times: %s", ev.Op, allocs, buf)
		}
	}
}

// TestEventLineGolden pins the line of each op.
func TestEventLineGolden(t *testing.T) {
	want := []string{
		`{"at_ns":35000000000,"op":"create","lease":1,"uid":10,"kind":"gps"}`,
		`{"at_ns":35000000000,"op":"renew","lease":1,"uid":10,"kind":"gps"}`,
		`{"at_ns":35000000000,"op":"term-check","lease":1,"uid":10,"kind":"gps","term":0,"term_ns":5000000000,` +
			`"ask":0.8,"ask_min":0.3,"success":0.025,"success_max":0.2,"hold":0.8,"hold_min":0.5,` +
			`"utilization":0.5,"utilization_min":0.05,"utility":80,"utility_min":25,"eub_floor":0.5,"class":"FAB"}`,
		`{"at_ns":35000000000,"op":"term-check","lease":2,"uid":10,"kind":"wakelock","term":0,"term_ns":5000000000,` +
			`"hold":0.8,"hold_min":0.5,"utilization":0.01,"utilization_min":0.05,"utility":0,"utility_min":25,"eub_floor":0.5,"class":"LHB"}`,
		`{"at_ns":35000000000,"op":"transition","lease":1,"uid":10,"kind":"gps","from":"ACTIVE","to":"DEFERRED",` +
			`"reason":"term classified FAB","tau_ns":25000000000,"restore_ns":60000000000}`,
		`{"at_ns":35000000000,"op":"transition","lease":1,"uid":10,"kind":"gps","from":"DEFERRED","to":"ACTIVE",` +
			`"reason":"deferral ended, resource restored"}`,
		`{"at_ns":35000000000,"op":"remove","lease":1,"uid":10,"kind":"gps"}`,
	}
	for i, ev := range lineEvents() {
		if got := string(AppendEventLine(nil, ev)); got != want[i] {
			t.Errorf("%s line:\n got %s\nwant %s", ev.Op, got, want[i])
		}
	}
}

// FuzzEventLineRoundTrip: the line of any event — every op or none of them,
// any kind, state and class in or out of range, NaN, ±Inf, huge floats and
// any reason bytes — decodes with encoding/json to exactly the members the
// event implies: a string as encoding/json round-trips it, an integer
// exactly, a float to the same bits (any NaN for NaN).
func FuzzEventLineRoundTrip(f *testing.F) {
	for _, ev := range lineEvents() {
		f.Add(int64(ev.At), ev.Op, ev.Lease, int64(ev.UID), int(ev.Kind), uint8(ev.From), uint8(ev.To), ev.Reason, int64(ev.Tau),
			ev.Term.Index, int64(ev.Term.Duration), int64(ev.Term.Held), int64(ev.Term.RequestTime),
			ev.Term.SuccessRatio, ev.Term.Utilization, ev.Term.UtilityScore, int(ev.Term.Behavior))
	}
	f.Add(int64(math.MinInt64), EventTermCheck, uint64(math.MaxUint64), int64(-1), int(hooks.GPSListener), uint8(9), uint8(2),
		"\x00\"\\\xff é", int64(math.MaxInt64), -1, int64(0), int64(math.MaxInt64), int64(-1),
		math.NaN(), math.Inf(1), -math.MaxFloat64, 7)
	f.Add(int64(1), EventTransition, uint64(0), int64(0), -3, uint8(0), uint8(Deferred), "", int64(-5), 0, int64(1), int64(1), int64(1),
		math.Inf(-1), 5e-324, 1e300, 0)
	f.Fuzz(func(t *testing.T, at int64, op string, id uint64, uid int64, kind int, from, to uint8, reason string, tau int64,
		index int, dur, held, request int64, success, util, utility float64, class int) {
		ev := Event{At: simclock.Time(at), Op: op, Lease: id, UID: power.UID(uid), Kind: hooks.Kind(kind),
			From: State(from), To: State(to), Reason: reason, Tau: time.Duration(tau),
			Term: TermRecord{Index: index, Duration: time.Duration(dur), Held: time.Duration(held), RequestTime: time.Duration(request),
				SuccessRatio: success, Utilization: util, UtilityScore: utility, Behavior: Behavior(class)}}
		line := AppendEventLine(nil, ev)
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		var got map[string]any
		if err := dec.Decode(&got); err != nil || dec.More() {
			t.Fatalf("line %s does not decode as one object: %v", line, err)
		}
		want := map[string]any{"at_ns": at, "op": op, "lease": id, "uid": uid, "kind": ev.Kind.String()}
		switch op {
		case EventTermCheck:
			c := ev.Term.check(ev.Kind)
			for k, v := range map[string]any{"term": int64(index), "term_ns": dur, "hold": ratioOf(ev.Term.Held, ev.Term.Duration), "hold_min": c.holdMin,
				"utilization": util, "utilization_min": c.utilMin, "utility": utility, "utility_min": c.utilityMin,
				"eub_floor": c.eubFloor, "class": ev.Term.Behavior.String()} {
				want[k] = v
			}
			if c.canAsk {
				want["ask"], want["ask_min"], want["success"], want["success_max"] = ratioOf(ev.Term.RequestTime, ev.Term.Duration), c.askMin, success, c.successMax
			}
		case EventTransition:
			want["from"], want["to"], want["reason"] = ev.From.String(), ev.To.String(), reason
			if ev.To == Deferred {
				want["tau_ns"], want["restore_ns"] = tau, at+tau
			}
		}
		if len(got) != len(want) {
			t.Fatalf("line %s has %d members, want %d", line, len(got), len(want))
		}
		for k, w := range want {
			if !sameMember(got[k], w) {
				t.Fatalf("line %s: %s decodes to %#v, want %#v", line, k, got[k], w)
			}
		}
	})
}

// sameMember reports whether got, a member decoded with UseNumber, carries
// want.
func sameMember(got, want any) bool {
	n, isNum := got.(json.Number)
	s, isStr := got.(string)
	switch w := want.(type) {
	case string:
		b, _ := json.Marshal(w)
		var rt string
		return json.Unmarshal(b, &rt) == nil && isStr && s == rt
	case int64:
		v, err := strconv.ParseInt(string(n), 10, 64)
		return isNum && err == nil && v == w
	case uint64:
		v, err := strconv.ParseUint(string(n), 10, 64)
		return isNum && err == nil && v == w
	case float64:
		if isNum {
			s = string(n)
		} else if !isStr || (s != "NaN" && s != "+Inf" && s != "-Inf") {
			return false
		}
		v, err := strconv.ParseFloat(s, 64)
		return err == nil && (math.Float64bits(v) == math.Float64bits(w) || math.IsNaN(v) && math.IsNaN(w))
	}
	return false
}
