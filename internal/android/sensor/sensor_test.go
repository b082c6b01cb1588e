package sensor

import (
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simclock"
)

type rig struct {
	engine *simclock.Engine
	meter  *power.Meter
	reg    *binder.Registry
	svc    *Service
}

func newRig() *rig {
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry(e)
	return &rig{engine: e, meter: m, reg: r, svc: New(e, m, r, device.PixelXL, hooks.Nop{})}
}

func TestEventsDeliveredAtRate(t *testing.T) {
	r := newRig()
	var events []Event
	r.svc.Register(10, Orientation, time.Second, func(ev Event) { events = append(events, ev) })
	r.engine.RunUntil(10 * time.Second)
	if len(events) != 10 {
		t.Fatalf("events = %d, want 10", len(events))
	}
	if events[0].Type != Orientation || events[0].Seq != 1 {
		t.Fatalf("first event = %+v", events[0])
	}
}

func TestSensorPowerWhileRegistered(t *testing.T) {
	r := newRig()
	reg := r.svc.Register(10, Accelerometer, time.Second, nil)
	if got := r.meter.InstantPowerOfW(10); got != device.PixelXL.SensorW {
		t.Fatalf("draw = %v, want %v", got, device.PixelXL.SensorW)
	}
	reg.Unregister()
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw after unregister = %v", got)
	}
}

func TestSuppressStopsDelivery(t *testing.T) {
	r := newRig()
	n := 0
	reg := r.svc.Register(10, Accelerometer, time.Second, func(Event) { n++ })
	r.engine.RunUntil(5 * time.Second)
	r.svc.Suppress(reg.ObjectID())
	before := n
	r.engine.RunUntil(15 * time.Second)
	if n != before {
		t.Fatal("suppressed listener still received events")
	}
	if !reg.Registered() {
		t.Fatal("suppression must be invisible to the app")
	}
	r.svc.Unsuppress(reg.ObjectID())
	r.engine.RunUntil(20 * time.Second)
	if n <= before {
		t.Fatal("events should resume after unsuppress")
	}
}

func TestTermStatsUsedTracksBoundActivity(t *testing.T) {
	r := newRig()
	reg := r.svc.Register(10, Orientation, time.Second, nil)
	r.engine.RunUntil(20 * time.Second)
	reg.SetBoundAlive(false)
	r.engine.RunUntil(60 * time.Second)
	ts := r.svc.TermStats(reg.ObjectID())
	if ts.Held != 60*time.Second || ts.Used != 20*time.Second {
		t.Fatalf("Held/Used = %v/%v, want 60s/20s", ts.Held, ts.Used)
	}
	if ts.DataPoints != 60 {
		t.Fatalf("DataPoints = %d, want 60", ts.DataPoints)
	}
}

func TestUnregisterReregisterLifecycle(t *testing.T) {
	r := newRig()
	reg := r.svc.Register(10, Light, time.Second, nil)
	reg.Unregister()
	if reg.Registered() {
		t.Fatal("should be unregistered")
	}
	reg.Unregister() // idempotent
	reg.Reregister()
	if !reg.Registered() {
		t.Fatal("should be registered again")
	}
	reg.Destroy()
	if reg.Registered() {
		t.Fatal("destroyed registration should not be registered")
	}
}

func TestDefaultRate(t *testing.T) {
	r := newRig()
	reg := r.svc.Register(10, Proximity, 0, nil)
	if reg.l.X.rate != 200*time.Millisecond {
		t.Fatalf("rate = %v, want 200ms default", reg.l.X.rate)
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{Accelerometer, Orientation, Light, Proximity, Camera} {
		if typ.String() == "sensor" {
			t.Errorf("type %d lacks a name", typ)
		}
	}
	if Type(99).String() != "sensor" {
		t.Error("unknown type should stringify to sensor")
	}
}

func TestOwnerDeathCleansUp(t *testing.T) {
	r := newRig()
	r.svc.Register(10, Accelerometer, time.Second, nil)
	r.reg.KillOwner(10)
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw after owner death = %v", got)
	}
	r.engine.RunUntil(10 * time.Second) // pending tick must not fire/panic
}
