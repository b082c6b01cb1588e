package lease

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// TestHistoryBackingStaysWithinBound: a lease keeps its last HistoryLen term
// records in a backing that grows to the bound and never past it, holds them
// oldest first exactly as an append-and-trim slice does, and once full takes
// a record in place without touching the heap.
func TestHistoryBackingStaysWithinBound(t *testing.T) {
	for _, n := range []int{1, 3, 120} {
		m := &Manager{cfg: Config{HistoryLen: n}}
		l := &Lease{}
		var ref []TermRecord
		for i := 0; i < 2000; i++ {
			rec := TermRecord{Index: i, Start: simclock.Time(i) * simclock.Time(time.Second)}
			m.record(l, rec)
			if ref = append(ref, rec); len(ref) > n {
				ref = ref[len(ref)-n:]
			}
			if c := cap(l.history); c > n {
				t.Fatalf("HistoryLen %d, term %d: backing holds %d records", n, i, c)
			}
			if got := l.History(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("HistoryLen %d, term %d: History() = %v, want %v", n, i, got, ref)
			}
			if e := m.Explanation(l); !e.HasLast || e.Last != rec {
				t.Fatalf("HistoryLen %d, term %d: Explanation's last = %v, %v; want %v", n, i, e.Last, e.HasLast, rec)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { m.record(l, TermRecord{}) }); allocs != 0 {
			t.Fatalf("HistoryLen %d: a full history allocates %v times a record", n, allocs)
		}
	}
}

// TestFullHistoryRestores: a manager whose leases' histories are full
// restores to one that encodes the same bytes and keeps evolving in step.
func TestFullHistoryRestores(t *testing.T) {
	cfg := Config{HistoryLen: 3}
	eng := simclock.NewEngine()
	stats := newFakeStats()
	mgr := NewManager(eng, stats, cfg)
	ctrl := newSnapCtrl()
	mgr.Create(snapObj(ctrl, 2, 20))
	feed := func(e *simclock.Engine, s *fakeStats) func() {
		return e.Ticker(time.Second, func() { s.cpu[20] += 500 * time.Millisecond })
	}
	defer feed(eng, stats)()
	eng.RunUntil(2 * time.Minute)
	if l := mgr.Leases()[0]; l.Terms() <= 3 || len(l.History()) != 3 {
		t.Fatalf("after %d terms the history holds %d records, want a full 3", l.Terms(), len(l.History()))
	}

	eng2 := simclock.NewEngine()
	eng2.RunUntil(2 * time.Minute)
	stats2 := newFakeStats()
	stats2.cpu[20] = stats.cpu[20]
	mgr2 := NewManager(eng2, stats2, cfg)
	ctrl2 := newSnapCtrl()
	err := mgr2.RestoreState(mgr.CaptureState(), func(ls LeaseState) (hooks.Object, bool) {
		return snapObj(ctrl2, ls.ObjID, power.UID(ls.UID)), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("restored manager encodes to different bytes")
	}
	defer feed(eng2, stats2)()
	eng.RunUntil(4 * time.Minute)
	eng2.RunUntil(4 * time.Minute)
	if !bytes.Equal(encodeManager(mgr), encodeManager(mgr2)) {
		t.Fatal("evolution diverged after restore")
	}
	if got, want := mgr2.Leases()[0].History(), mgr.Leases()[0].History(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored History() = %v, want %v", got, want)
	}
}
