package lease

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// FuzzLeaseTableMatchesMap runs the manager's lease table against a Go map.
// Each input byte is one step, its low three bits choosing the step and the
// high five an argument a:
//
//	0, 1  create a lease
//	2     remove lease a, which may be dead or never issued
//	3     look lease a up
//	4     capture the manager and restore the capture into a fresh one, which
//	      replaces it
//	5     restore a capture corrupted by a — a repeated row, two rows
//	      swapped, or an ID past next_id — which must fail with ErrLeaseID
//	6     advance the clock a tenths of a second, so term checks fire
//	7     remove the live lease of rank a, modulo their count
//
// After every step the manager must list exactly the map's leases, in ID
// order, find each by its ID, and find at ID 0, at the step's argument and
// at the next ID to issue what the map holds there.
func FuzzLeaseTableMatchesMap(f *testing.F) {
	step := func(op, a byte) byte { return a<<3 | op }
	f.Add([]byte{create, create, create, create, step(remove, 2), step(lookup, 2), step(lookup, 3), step(byRank, 2), restore, create, step(lookup, 5)})
	f.Add([]byte{create, create, create, step(corrupt, 0), step(corrupt, 1), step(corrupt, 2), step(remove, 3), step(corrupt, 1), step(byRank, 0), step(corrupt, 2)})
	f.Add([]byte{create, step(advance, 31), create, step(advance, 31), create, restore, step(advance, 31), step(byRank, 1), step(remove, 1), restore, create, step(lookup, 4)})
	var many []byte
	for i := range 40 {
		many = append(many, create, create, step(byRank, byte(i)), step(lookup, byte(i)))
	}
	f.Add(append(many, restore, step(corrupt, 4), step(byRank, 7), step(byRank, 0)))
	f.Fuzz(checkLeaseTable)
}

// The steps of FuzzLeaseTableMatchesMap, as an input byte's low three bits.
const (
	create  = 0 // and 1
	remove  = 2
	lookup  = 3
	restore = 4
	corrupt = 5
	advance = 6
	byRank  = 7
)

// checkLeaseTable runs one FuzzLeaseTableMatchesMap input.
func checkLeaseTable(t *testing.T, steps []byte) {
	eng := simclock.NewEngine()
	ctrl := newSnapCtrl()
	resolve := func(ls LeaseState) (*Lease, hooks.Object) {
		return new(Lease), snapObj(ctrl, ls.ObjID, power.UID(ls.UID))
	}
	mgr := NewManager(eng, newFakeStats(), Config{})
	model := make(map[uint64]*Lease)
	var issued uint64
	for i, b := range steps {
		op, a := b&7, uint64(b>>3)
		switch op {
		case create, create + 1:
			issued++
			if l := createLease(mgr, snapObj(ctrl, issued, power.UID(issued%7+1))); l.ID() != issued {
				t.Fatalf("step %d: created lease %d, want %d", i, l.ID(), issued)
			} else {
				model[issued] = l
			}
		case remove:
			if got, want := mgr.Remove(a), model[a] != nil; got != want {
				t.Fatalf("step %d: Remove(%d) = %v, the map holds it: %v", i, a, got, want)
			}
			delete(model, a)
		case lookup:
			if got := mgr.LeaseByID(a); got != model[a] {
				t.Fatalf("step %d: LeaseByID(%d) = %p, the map holds %p", i, a, got, model[a])
			}
		case restore:
			st := mgr.CaptureState()
			eng = engineAt(eng.Now()) // the old manager's events go with its engine
			fresh := NewManager(eng, newFakeStats(), Config{})
			if err := ValidateState(st); err != nil {
				t.Fatalf("step %d: restoring a capture: %v", i, err)
			}
			fresh.RestoreState(st, resolve)
			mgr = fresh
			for id := range model {
				model[id] = mgr.LeaseByID(id)
			}
		case corrupt:
			st := mgr.CaptureState()
			n := len(st.Leases)
			if n == 0 {
				continue
			}
			rows := slices.Clone(st.Leases)
			switch k := int(a) % n; {
			case a%3 == 0:
				rows = slices.Insert(rows, k, rows[k])
			case a%3 == 1 && n > 1:
				rows[k], rows[(k+1)%n] = rows[(k+1)%n], rows[k]
			default:
				rows[n-1].ID = st.NextID + 1 + a
			}
			st.Leases = rows
			if err := ValidateState(st); !errors.Is(err, ErrLeaseID) {
				t.Fatalf("step %d: restoring a capture corrupted by %d: err = %v, want ErrLeaseID", i, a, err)
			}
		case advance:
			eng.RunUntil(eng.Now() + time.Duration(a)*100*time.Millisecond)
		case byRank:
			if len(model) == 0 {
				continue
			}
			ids := sortedIDs(model)
			id := ids[int(a)%len(ids)]
			if !mgr.Remove(id) {
				t.Fatalf("step %d: Remove(%d) of a live lease failed", i, id)
			}
			delete(model, id)
		}
		ls := mgr.Leases()
		if len(ls) != len(model) || mgr.LeaseCount() != len(model) {
			t.Fatalf("step %d: %d leases listed, %d counted, the map holds %d", i, len(ls), mgr.LeaseCount(), len(model))
		}
		for k, l := range ls {
			if l != model[l.ID()] || k > 0 && l.ID() <= ls[k-1].ID() {
				t.Fatalf("step %d: lease %d listed at rank %d: not the map's, or out of ID order", i, l.ID(), k)
			}
			if mgr.LeaseByID(l.ID()) != l {
				t.Fatalf("step %d: LeaseByID(%d) does not find its listed lease", i, l.ID())
			}
		}
		for _, id := range [...]uint64{0, a, issued + 1} {
			if got := mgr.LeaseByID(id); got != model[id] {
				t.Fatalf("step %d: LeaseByID(%d) = %p, the map holds %p", i, id, got, model[id])
			}
		}
	}
}

// engineAt is a fresh engine whose clock reads now.
func engineAt(now simclock.Time) *simclock.Engine {
	eng := simclock.NewEngine()
	eng.RunUntil(now)
	return eng
}

func sortedIDs(model map[uint64]*Lease) []uint64 {
	ids := make([]uint64, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
