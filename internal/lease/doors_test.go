package lease

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// doorRig is one manager on its own engine, its app stats fed so that uid 20
// is busy and every other holder idle, hearing its own event stream.
type doorRig struct {
	eng    *simclock.Engine
	stats  *fakeStats
	ctrl   *snapCtrl
	mgr    *Manager
	events []Event
}

// newDoorRig builds a rig at instant at whose stats start from cpu.
func newDoorRig(at simclock.Time, cpu map[power.UID]time.Duration) *doorRig {
	r := &doorRig{eng: simclock.NewEngine(), stats: newFakeStats(), ctrl: newSnapCtrl()}
	r.eng.RunUntil(at)
	for uid, v := range cpu {
		r.stats.cpu[uid] = v
	}
	r.eng.Ticker(time.Second, func() { r.stats.cpu[20] += 500 * time.Millisecond })
	r.mgr = NewManager(r.eng, r.stats, Config{})
	r.mgr.OnEvent = func(ev Event) { r.events = append(r.events, ev) }
	return r
}

func (r *doorRig) obj(id uint64) hooks.Object { return snapObj(r.ctrl, id, power.UID(10*id)) }

// TestHandleAndObjectDoorsAgree: a manager driven only by handle — created
// through CreateLease, then checkpointed and restored — never builds its
// by-object index, and hears the same events as a twin driven by object.
// The restored manager then answers the object door like the twin: Create
// finds a live object's lease, each upcall reaches its object's lease, a
// destroyed object's lease is unknown, and one adopted since is found.
func TestHandleAndObjectDoorsAgree(t *testing.T) {
	h, o := newDoorRig(0, nil), newDoorRig(0, nil)
	step := func(what string) {
		t.Helper()
		if reflect.DeepEqual(h.events, o.events) {
			return
		}
		i := 0
		for i < min(len(h.events), len(o.events)) && h.events[i] == o.events[i] {
			i++
		}
		at := func(evs []Event) any {
			if i < len(evs) {
				return evs[i]
			}
			return "none"
		}
		t.Fatalf("%s: the doors' event streams differ at event %d of %d and %d:\nhandle: %+v\nobject: %+v", what, i, len(h.events), len(o.events), at(h.events), at(o.events))
	}
	noIndex := func(what string) {
		t.Helper()
		if h.mgr.byObj != nil {
			t.Fatalf("%s: the handle door built the by-object index (%d entries)", what, len(h.mgr.byObj))
		}
	}
	run := func(to simclock.Time) {
		h.eng.RunUntil(to)
		o.eng.RunUntil(to)
	}

	var ls [4]*Lease // by object ID 1..3
	for id := uint64(1); id <= 3; id++ {
		ls[id] = createLease(h.mgr, h.obj(id))
		if got := o.mgr.Create(o.obj(id)); got != ls[id].ID() {
			t.Fatalf("object %d: CreateLease made lease %d, Create %d", id, ls[id].ID(), got)
		}
	}
	noIndex("CreateLease")
	step("create")
	run(7 * time.Second) // uids 10 and 30 idle: deferred; uid 20 busy: active
	step("first terms")

	h.mgr.Released(ls[2])
	o.mgr.ObjectReleased(o.obj(2))
	run(12 * time.Second)
	step("released")
	h.mgr.Reacquired(ls[2])
	o.mgr.ObjectReacquired(o.obj(2))
	step("reacquired")
	h.mgr.Destroyed(ls[3])
	o.mgr.ObjectDestroyed(o.obj(3))
	step("destroyed")
	run(20 * time.Second)
	step("later terms")
	noIndex("Released, Reacquired and Destroyed")

	// Restore the handle manager on a fresh engine at the same instant.
	st := h.mgr.CaptureState()
	r := newDoorRig(h.eng.Now(), h.stats.cpu)
	if err := ValidateState(st); err != nil {
		t.Fatal(err)
	}
	r.mgr.RestoreState(st, func(ls LeaseState) (*Lease, hooks.Object) {
		if State(ls.State) == Deferred {
			r.ctrl.Suppress(ls.ObjID)
		}
		return new(Lease), r.obj(ls.ObjID)
	})
	r.events = h.events
	h = r
	noIndex("RestoreState")
	run(25 * time.Second)
	step("restored")

	// The object door on the restored manager.
	for id := uint64(1); id <= 2; id++ {
		if got, want := h.mgr.Create(h.obj(id)), ls[id].ID(); got != want {
			t.Fatalf("Create of live object %d = lease %d, want its lease %d", id, got, want)
		}
		o.mgr.Create(o.obj(id))
	}
	step("Create of live objects")
	if h.mgr.LeaseCount() != 2 {
		t.Fatalf("%d live leases after Create of live objects, want 2", h.mgr.LeaseCount())
	}
	h.mgr.ObjectReleased(h.obj(2))
	o.mgr.ObjectReleased(o.obj(2))
	if l1, l2 := h.mgr.LeaseByID(ls[1].ID()), h.mgr.LeaseByID(ls[2].ID()); !l1.held || l2.held {
		t.Fatalf("ObjectReleased(2): lease 1 held %v, lease 2 held %v; want only lease 2 released", l1.held, l2.held)
	}
	run(40 * time.Second)
	step("ObjectReleased")
	h.mgr.ObjectReacquired(h.obj(2))
	o.mgr.ObjectReacquired(o.obj(2))
	if !h.mgr.LeaseByID(ls[2].ID()).held {
		t.Fatal("ObjectReacquired(2) did not reach lease 2")
	}
	step("ObjectReacquired")
	h.mgr.ObjectDestroyed(h.obj(1))
	o.mgr.ObjectDestroyed(o.obj(1))
	step("ObjectDestroyed")
	if h.mgr.LeaseByID(ls[1].ID()) != nil || h.mgr.Check(ls[1].ID()) || h.mgr.leaseOf(h.obj(1)) != nil {
		t.Fatal("a destroyed object's lease is still known")
	}
	if h.mgr.LeaseByID(ls[2].ID()) == nil {
		t.Fatal("ObjectDestroyed(1) killed lease 2")
	}
	h.mgr.ObjectReleased(h.obj(1)) // no lease: a no-op
	o.mgr.ObjectReleased(o.obj(1))
	run(60 * time.Second)
	step("after the destroy")

	// Reacquiring the destroyed object adopts it under a fresh lease, which
	// the index, built by now, must hold: Create finds it.
	h.mgr.ObjectReacquired(h.obj(1))
	o.mgr.ObjectReacquired(o.obj(1))
	step("adopted")
	if id := h.mgr.Create(h.obj(1)); id == ls[1].ID() || h.mgr.LeaseByID(id) == nil || h.mgr.LeaseCount() != 2 {
		t.Fatalf("Create of the adopted object = lease %d with %d live leases; want its one fresh lease", id, h.mgr.LeaseCount())
	}
	o.mgr.Create(o.obj(1))
	run(70 * time.Second)
	step("after the adoption")
}

// createLease is CreateLease into fresh storage.
func createLease(m *Manager, o hooks.Object) *Lease {
	l := new(Lease)
	m.CreateLease(l, o)
	return l
}
