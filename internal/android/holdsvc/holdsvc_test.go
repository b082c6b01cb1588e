package holdsvc

import (
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

func newSvc(gov hooks.Governor) (*simclock.Engine, *power.Meter, *binder.Registry, *Service) {
	if gov == nil {
		gov = hooks.Nop{}
	}
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry(e)
	s := New(e, m, r, gov, "wifi", hooks.WifiLock, power.WiFi, 0.016)
	return e, m, r, s
}

func TestAcquireReleasePower(t *testing.T) {
	e, m, _, s := newSvc(nil)
	l := s.NewLock(10)
	l.Acquire()
	if got := m.InstantPowerOfW(10); got != 0.016 {
		t.Fatalf("draw = %v, want 0.016", got)
	}
	e.RunUntil(10 * time.Second)
	l.Release()
	if got := m.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw after release = %v", got)
	}
}

func TestSuppressionSemantics(t *testing.T) {
	e, m, _, s := newSvc(nil)
	l := s.NewLock(10)
	l.Acquire()
	id := l.ObjectID()
	e.RunUntil(5 * time.Second)
	s.Suppress(id)
	if got := m.InstantPowerOfW(10); got != 0 {
		t.Fatalf("suppressed draw = %v", got)
	}
	if !l.IsHeld() {
		t.Fatal("suppression must be invisible to the app")
	}
	e.RunUntil(10 * time.Second)
	ts := s.TermStats(id)
	if ts.Held != 10*time.Second || ts.Active != 5*time.Second {
		t.Fatalf("Held/Active = %v/%v", ts.Held, ts.Active)
	}
	s.Unsuppress(id)
	if got := m.InstantPowerOfW(10); got != 0.016 {
		t.Fatalf("restored draw = %v", got)
	}
}

func TestReleaseDuringSuppressionSticks(t *testing.T) {
	_, m, _, s := newSvc(nil)
	l := s.NewLock(10)
	l.Acquire()
	id := l.ObjectID()
	s.Suppress(id)
	l.Release()
	s.Unsuppress(id)
	if got := m.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw = %v, want 0", got)
	}
}

type countGov struct {
	hooks.Nop
	created, released, reacquired, destroyed int
}

func (g *countGov) ObjectCreated(hooks.Object)    { g.created++ }
func (g *countGov) ObjectReleased(hooks.Object)   { g.released++ }
func (g *countGov) ObjectReacquired(hooks.Object) { g.reacquired++ }
func (g *countGov) ObjectDestroyed(hooks.Object)  { g.destroyed++ }

func TestLifecycleCallbacks(t *testing.T) {
	gov := &countGov{}
	_, _, reg, s := newSvc(gov)
	l := s.NewLock(10)
	l.Acquire()
	l.Release()
	l.Acquire()
	reg.KillOwner(10)
	if gov.created != 1 || gov.released != 1 || gov.reacquired != 1 || gov.destroyed != 1 {
		t.Fatalf("callbacks = %+v", gov)
	}
}

func TestSharedDrawSplit(t *testing.T) {
	_, m, _, s := newSvc(nil)
	a := s.NewLock(10)
	b := s.NewLock(20)
	a.Acquire()
	b.Acquire()
	if got := m.InstantPowerOfW(10); got != 0.008 {
		t.Fatalf("split draw = %v, want 0.008", got)
	}
	if got := m.InstantPowerW(); got != 0.016 {
		t.Fatalf("total = %v, want 0.016", got)
	}
}
