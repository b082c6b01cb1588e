package appfw

import "testing"

type fakeBound struct{ alive bool }

func (f *fakeBound) SetBoundAlive(a bool) { f.alive = a }

func TestActivityLifecycle(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	act := p.NewActivity()
	if !act.Alive() {
		t.Fatal("fresh activity should be alive")
	}
	l := &fakeBound{}
	act.Bind(l)
	if !l.alive {
		t.Fatal("binding to a live activity should mark the listener used")
	}
	act.Destroy()
	if l.alive || act.Alive() {
		t.Fatal("destroy should mark bound listeners unused")
	}
	act.Destroy() // idempotent
	act.Recreate()
	if !l.alive || !act.Alive() {
		t.Fatal("recreate should revive bound listeners")
	}
	act.Recreate() // idempotent
}

func TestBindToDeadActivity(t *testing.T) {
	r := newRig(nil)
	p := r.fw.NewProcess(10)
	act := p.NewActivity()
	act.Destroy()
	l := &fakeBound{alive: true}
	act.Bind(l)
	if l.alive {
		t.Fatal("binding to a dead activity should mark the listener unused")
	}
}
