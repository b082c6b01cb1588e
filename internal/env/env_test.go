package env

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestDefaults(t *testing.T) {
	e := New()
	if !e.NetworkConnected() || !e.NetworkOnWiFi() || !e.ServerHealthy() {
		t.Fatal("defaults should be benign")
	}
	if e.GPS() != GPSGood || e.Moving() || e.UserPresent() {
		t.Fatal("defaults should be benign")
	}
	if e.SpeedMps() != 0 {
		t.Fatal("stationary speed should be 0")
	}
}

func TestSubscribersNotifiedOnChange(t *testing.T) {
	e := New()
	n := 0
	e.Subscribe(func() { n++ })
	e.SetNetwork(false, false)
	e.SetNetwork(false, false) // no change, no notification
	e.SetServerHealthy(false)
	e.SetGPS(GPSWeak)
	e.SetMotion(true, 2.5)
	e.SetUserPresent(true)
	if n != 5 {
		t.Fatalf("notifications = %d, want 5 (one per actual change)", n)
	}
}

func TestWiFiRequiresConnectivity(t *testing.T) {
	e := New()
	e.SetNetwork(false, true)
	if e.NetworkOnWiFi() {
		t.Fatal("disconnected network cannot be on Wi-Fi")
	}
}

func TestSpeedWhileMoving(t *testing.T) {
	e := New()
	e.SetMotion(true, 3)
	if e.SpeedMps() != 3 {
		t.Fatalf("SpeedMps = %v, want 3", e.SpeedMps())
	}
	e.SetMotion(false, 3)
	if e.SpeedMps() != 0 {
		t.Fatal("stationary speed should be 0")
	}
}

func TestScheduledMutation(t *testing.T) {
	eng := simclock.NewEngine()
	e := New()
	eng.ScheduleAt(10*time.Second, func() { e.SetGPS(GPSNone) })
	eng.RunUntil(5 * time.Second)
	if e.GPS() != GPSGood {
		t.Fatal("mutation fired early")
	}
	eng.RunUntil(15 * time.Second)
	if e.GPS() != GPSNone {
		t.Fatal("scheduled mutation did not fire")
	}
}

func TestGPSQualityString(t *testing.T) {
	if GPSGood.String() != "good" || GPSWeak.String() != "weak" || GPSNone.String() != "none" {
		t.Fatal("GPSQuality strings wrong")
	}
}
