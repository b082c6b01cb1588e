package location

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/env"
)

func TestSuppressDuringSearchStopsFailedTime(t *testing.T) {
	r := newRig(nil)
	r.world.SetGPS(env.GPSWeak)
	req := r.svc.Register(10, time.Second, nil)
	r.engine.RunUntil(10 * time.Second)
	r.svc.Suppress(req.ObjectID())
	r.engine.RunUntil(60 * time.Second)
	ts := r.svc.TermStats(req.ObjectID())
	if ts.FailedRequestTime != 10*time.Second {
		t.Fatalf("FailedRequestTime = %v, want 10s (suppressed search must not accrue)", ts.FailedRequestTime)
	}
	if ts.Active != 10*time.Second {
		t.Fatalf("Active = %v, want 10s", ts.Active)
	}
}

func TestSearchRestartsAfterSuppression(t *testing.T) {
	// A suppressed listener loses its lock; after restoration a fresh
	// search (LockTime) must complete before fixes resume.
	r := newRig(nil)
	fixes := 0
	req := r.svc.Register(10, time.Second, func(Fix) { fixes++ })
	r.engine.RunUntil(10 * time.Second) // locked at 5 s, fixes flowing
	r.svc.Suppress(req.ObjectID())
	r.engine.RunUntil(20 * time.Second)
	n := fixes
	r.svc.Unsuppress(req.ObjectID())
	r.engine.RunUntil(20*time.Second + LockTime - time.Second)
	if fixes != n {
		t.Fatal("fixes resumed before the new search locked")
	}
	r.engine.RunUntil(30 * time.Second)
	if fixes <= n {
		t.Fatal("fixes should resume after the re-lock")
	}
}

func TestDestroyMidSearchCancelsEvents(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, time.Second, nil)
	r.engine.RunUntil(2 * time.Second) // mid initial search
	req.Destroy()
	r.engine.RunUntil(time.Minute) // the pending lock event must not fire
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("destroyed listener draws %v", got)
	}
}

func TestMultipleListenersSameApp(t *testing.T) {
	r := newRig(nil)
	a := r.svc.Register(10, time.Second, nil)
	b := r.svc.Register(10, 2*time.Second, nil)
	// Same uid: the radio draw is attributed once per listener share but
	// sums to the full radio power.
	if got := r.meter.InstantPowerOfW(10); !almost(got, device.PixelXL.GPSActiveW) {
		t.Fatalf("uid draw = %v, want full GPS draw", got)
	}
	a.Unregister()
	if got := r.meter.InstantPowerOfW(10); !almost(got, device.PixelXL.GPSActiveW) {
		t.Fatalf("one listener left: %v, want full GPS draw", got)
	}
	b.Unregister()
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("no listeners: %v", got)
	}
}

func TestReregisterAfterDestroyIsInert(t *testing.T) {
	r := newRig(nil)
	req := r.svc.Register(10, time.Second, nil)
	req.Destroy()
	req.Reregister() // must not panic or re-power
	if req.Registered() {
		t.Fatal("destroyed registration cannot re-register")
	}
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw = %v", got)
	}
}

func TestGPSQualityDegradesMidTracking(t *testing.T) {
	r := newRig(nil)
	fixes := 0
	r.svc.Register(10, time.Second, func(Fix) { fixes++ })
	r.engine.RunUntil(10 * time.Second)
	n := fixes
	r.world.SetGPS(env.GPSWeak) // drive into a tunnel
	r.engine.RunUntil(30 * time.Second)
	if fixes != n {
		t.Fatal("fixes must stop when signal degrades")
	}
}

// TestEnvChangeReschedulesInCreationOrder is the regression test for the
// nondeterminism the service's private listener map hid: an environment
// change rescheduled listeners in Go map order, so listeners whose searches
// complete at the same instant got their first fixes in an order that
// differed between identical runs. The walk is now in creation order.
func TestEnvChangeReschedulesInCreationOrder(t *testing.T) {
	firstFixOrder := func() [4]int {
		r := newRig(nil)
		r.world.SetGPS(env.GPSWeak)
		var order [4]int
		n := 0
		for i := range order {
			first := true
			r.svc.Register(10, time.Second, func(Fix) {
				if first {
					first = false
					order[n] = i
					n++
				}
			})
		}
		r.engine.RunUntil(10 * time.Second)
		r.world.SetGPS(env.GPSGood)
		r.engine.RunUntil(10*time.Second + LockTime)
		if n != len(order) {
			t.Fatalf("%d of %d listeners got a first fix", n, len(order))
		}
		return order
	}
	want := [4]int{0, 1, 2, 3}
	for run := 0; run < 200; run++ {
		if got := firstFixOrder(); got != want {
			t.Fatalf("run %d: first fixes in order %v, want creation order %v", run, got, want)
		}
	}
}
