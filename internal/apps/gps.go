package apps

import (
	"time"

	"repro/internal/android/appfw"
	"repro/internal/android/hooks"
	"repro/internal/android/location"
	"repro/internal/android/powermgr"
	"repro/internal/power"
	"repro/internal/sim"
)

// BetterWeather models the BetterWeather defect (§2.1 case III, Table 5 row
// 10, Figure 1): the widget's requestLocation keeps searching for a GPS
// lock non-stop in an environment with poor signal. The model retries on a
// one-minute cycle, searching for 40 s of it — reproducing Figure 1's
// "around 60% of the time asking for the GPS lock".
type BetterWeather struct {
	base
	wl  *powermgr.Wakelock
	req *location.Request
	// GotWeather counts successful weather refreshes (fixes received).
	GotWeather int
}

// NewBetterWeather builds the model.
func NewBetterWeather(s *sim.Sim, uid power.UID) *BetterWeather {
	return &BetterWeather{base: newBase(s, uid, "BetterWeather")}
}

// Start implements App.
func (a *BetterWeather) Start() {
	a.wl = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "bw-refresh")
	try := func() {
		a.wl.Acquire()
		if a.req == nil {
			a.req = a.s.Location.Register(a.UID(), 10*time.Second, func(location.Fix) {
				a.GotWeather++
				a.proc.NoteUIUpdate() // widget refresh
			})
		} else {
			a.req.Reregister()
		}
		a.proc.After(40*time.Second, func() {
			if a.req != nil {
				a.req.Unregister()
			}
			a.wl.Release()
		})
	}
	a.s.Engine.Schedule(0, try)
	a.proc.AlarmEvery(time.Minute, try)
}

// GPSObjectID exposes the GPS registration's kernel-object id for
// profilers (Figure 1 samples its per-minute try duration). It is zero
// until the first request cycle runs.
func (a *BetterWeather) GPSObjectID() uint64 {
	if a.req == nil {
		return 0
	}
	return a.req.ObjectID()
}

// Where models the WHERE travel app (Table 5 row 11): a continuous GPS
// search with no give-up logic at all — under weak signal the radio asks
// forever.
type Where struct {
	base
}

// NewWhere builds the model.
func NewWhere(s *sim.Sim, uid power.UID) *Where {
	return &Where{base: newBase(s, uid, "WHERE")}
}

// Start implements App.
func (a *Where) Start() {
	a.s.Location.Register(a.UID(), 5*time.Second, func(location.Fix) {
		a.proc.NoteUIUpdate()
	})
}

// gpsLeak is the shared shape of the GPS Long-Holding defects: a listener
// registered on behalf of a UI Activity that later goes away, while the
// listener — and the GPS radio — live on.
type gpsLeak struct {
	base
	req      *location.Request
	activity *appfw.Activity
	interval time.Duration
	// uiLife is how long the bound activity lives before the user leaves it.
	uiLife time.Duration
	// rebindEvery, when non-zero, re-registers the listener periodically
	// (the MozStumbler interval-scanning pattern), resetting any penalty a
	// governor applied to the old registration.
	rebindEvery time.Duration
}

// Start implements App.
func (a *gpsLeak) Start() {
	a.activity = a.proc.NewActivity()
	a.req = a.s.Location.Register(a.UID(), a.interval, func(location.Fix) {
		if a.activity.Alive() {
			a.proc.NoteUIUpdate()
		}
	})
	a.activity.Bind(a.req)
	a.proc.AlarmAfter(a.uiLife, func() {
		a.activity.Destroy() // the user leaves; the listener leaks
	})
	if a.rebindEvery > 0 {
		a.proc.AlarmEvery(a.rebindEvery, func() {
			// A fresh scan session: tear down and immediately re-register.
			a.req.Unregister()
			a.req.Reregister()
		})
	}
}

// NewMozStumbler models MozStumbler issue #369 (Table 5 row 12):
// interval-based periodic scanning keeps re-creating GPS sessions with no
// user-facing activity behind them. The re-registration resets one-shot
// throttles and lease deferrals alike, which is why every policy struggles
// most with this app in Table 5.
func NewMozStumbler(s *sim.Sim, uid power.UID) App {
	return &gpsLeak{base: newBase(s, uid, "MozStumbler"),
		interval: time.Second, uiLife: 10 * time.Second, rebindEvery: 90 * time.Second}
}

// NewOSMTracker models the OSMTracker leak (Table 5 row 13): tracking keeps
// running after the user leaves the tracking screen.
func NewOSMTracker(s *sim.Sim, uid power.UID) App {
	return &gpsLeak{base: newBase(s, uid, "OSMTracker"),
		interval: time.Second, uiLife: 2 * time.Minute}
}

// NewGPSLogger models GPSLogger issue #4 (Table 5 row 14): the
// location-accuracy feature holds the GPS listener after its UI is gone.
func NewGPSLogger(s *sim.Sim, uid power.UID) App {
	return &gpsLeak{base: newBase(s, uid, "GPSLogger"),
		interval: 2 * time.Second, uiLife: time.Minute}
}

// NewBostonBusMap models the BostonBusMap defect (Table 5 row 15):
// "can't find location" work was still posted after the location UI was
// turned off.
func NewBostonBusMap(s *sim.Sim, uid power.UID) App {
	return &gpsLeak{base: newBase(s, uid, "BostonBusMap"),
		interval: 2 * time.Second, uiLife: 30 * time.Second}
}

// gpsIdleStream is the shared shape of the GPS Low-Utility defects: the
// listener's activity is alive and fixes flow, but the device never moves,
// nothing reaches the UI, and (unless work is configured) nothing processes
// the data — consumption without value.
type gpsIdleStream struct {
	base
	interval time.Duration
	// workPerFix, when non-zero, burns CPU per fix (OpenGPSTracker's
	// track-recording pipeline), with failEvery-th fixes throwing storage
	// exceptions.
	workPerFix time.Duration
	failEvery  int
	nfix       int
}

// Start implements App.
func (a *gpsIdleStream) Start() {
	if a.workPerFix > 0 {
		a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "gps-pipeline").Acquire()
	}
	a.s.Location.Register(a.UID(), a.interval, func(location.Fix) {
		a.nfix++
		if a.workPerFix > 0 {
			a.proc.RunWork(a.workPerFix, nil)
			if a.failEvery > 0 && a.nfix%a.failEvery == 0 {
				a.proc.ThrowException() // track-write failure loop
			}
		}
	})
}

// NewAIMSICD models the AIMSI-Catcher-Detector defect (Table 5 row 16):
// cell-tower watching keeps precise GPS running on a stationary phone with
// nothing consuming the fixes.
func NewAIMSICD(s *sim.Sim, uid power.UID) App {
	return &gpsIdleStream{base: newBase(s, uid, "AIMSICD"), interval: time.Second}
}

// NewOpenScienceMap models the vtm "GPS stays active" defect (Table 5 row
// 17): the map engine leaves GPS on after the map stops rendering.
func NewOpenScienceMap(s *sim.Sim, uid power.UID) App {
	return &gpsIdleStream{base: newBase(s, uid, "OpenScienceMap"), interval: time.Second}
}

// NewOpenGPSTracker models open-gpstracker issue #239 (Table 5 row 18): the
// recording pipeline keeps ingesting fixes and erroring on every write —
// high utilisation, no value, substantial CPU on top of the GPS radio.
func NewOpenGPSTracker(s *sim.Sim, uid power.UID) App {
	return &gpsIdleStream{base: newBase(s, uid, "OpenGPSTracker"),
		interval: time.Second, workPerFix: 250 * time.Millisecond, failEvery: 2}
}
