// Package workload scripts the usage scenarios behind the paper's
// system-level experiments: the one-hour normal-usage trace of Figure 11,
// the five power-overhead settings of Figure 13, and the §7.6 battery-life
// day. Scenarios are deterministic for a given seed.
package workload

import (
	"math/rand"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/android/location"
	"repro/internal/android/sensor"
	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// uid bases for the scripted scenarios, kept clear of app-model uids.
const (
	sessionUIDBase power.UID = 300
	fleetUIDBase   power.UID = 400
	buggyUID       power.UID = 251
)

// sessionKind is the genre of one interactive session.
type sessionKind int

const (
	gameSession sessionKind = iota
	socialSession
	newsSession
	mapSession
	numSessionKinds
)

// runSession plays one foreground session of the given genre, starting now
// and lasting d. Sessions allocate fresh resource objects, which is what
// makes leases come and go in Figure 11.
func runSession(s *sim.Sim, uid power.UID, kind sessionKind, d time.Duration) {
	proc := s.Apps.ProcessOf(uid)
	if proc == nil {
		proc = s.Apps.NewProcess(uid)
	}
	proc.SetForeground(true)

	var cleanup []func()
	stopRender := proc.Every(time.Second, func() {
		proc.RunWork(150*time.Millisecond, func() { proc.NoteUIUpdate() })
	})
	stopTouch := proc.Every(3*time.Second, func() { proc.NoteInteraction() })
	cleanup = append(cleanup, stopRender, stopTouch)

	// App launch holds a short-lived wakelock while the process warms up,
	// as the activity manager does on real devices.
	launch := s.Power.NewWakelock(uid, hooks.Wakelock, "launch")
	launch.Acquire()
	proc.RunWork(800*time.Millisecond, func() {
		launch.Release()
		launch.Destroy()
	})

	switch kind {
	case gameSession:
		wl := s.Power.NewWakelock(uid, hooks.ScreenWakelock, "game-screen")
		wl.Acquire()
		reg := s.Sensors.Register(uid, sensor.Accelerometer, 100*time.Millisecond, nil)
		cleanup = append(cleanup, func() { wl.Release(); reg.Destroy() })
	case socialSession:
		wl := s.Power.NewWakelock(uid, hooks.Wakelock, "feed-refresh")
		stopNet := proc.Every(10*time.Second, func() {
			wl.Acquire()
			proc.NetworkRequest(time.Second, func(error) { wl.Release() })
		})
		cleanup = append(cleanup, func() { stopNet(); wl.Release(); wl.Destroy() })
	case newsSession:
		stopNet := proc.Every(15*time.Second, func() {
			proc.NetworkRequest(2*time.Second, nil)
		})
		cleanup = append(cleanup, stopNet)
	case mapSession:
		req := s.Location.Register(uid, 2*time.Second, func(location.Fix) {})
		cleanup = append(cleanup, func() { req.Destroy() })
	}

	s.Engine.Schedule(d, func() {
		for _, fn := range cleanup {
			fn()
		}
		proc.SetForeground(false)
	})
}

// NormalHour installs and drives the paper's §7.2 lease-activity scenario:
// "we actively use popular apps including playing games, browsing social
// network, reading news and listening to music for 30 minutes and then
// leave it untouched for another 30 minutes". Background sync apps run
// throughout. Call before running the simulation for one hour.
func NormalHour(s *sim.Sim, seed int64) {
	rng := stats.NewRand(seed)

	// Background ecosystem: eight staggered sync apps plus music for the
	// active half-hour.
	fleet := apps.NewFleet(s, fleetUIDBase, 8)
	for _, a := range fleet {
		a.Start()
	}
	spotify := apps.NewSpotify(s, buggyUID)

	// Active half: screen on, user present, sessions back to back.
	s.World.SetUserPresent(true)
	s.Power.SetUserScreen(true)
	spotify.Start()

	at := time.Duration(0)
	uid := sessionUIDBase
	for at < 30*time.Minute {
		d := time.Duration(2+rng.Intn(3)) * time.Minute
		if at+d > 30*time.Minute {
			d = 30*time.Minute - at
		}
		kind := sessionKind(rng.Intn(int(numSessionKinds)))
		u := uid
		k := kind
		dd := d
		s.Engine.ScheduleAt(at, func() { runSession(s, u, k, dd) })
		at += d
		uid++
	}

	// Idle half: user leaves, screen goes dark, music stops.
	s.Engine.ScheduleAt(30*time.Minute, func() {
		spotify.Stop()
		s.World.SetUserPresent(false)
		s.Power.SetUserScreen(false)
	})
}

// OverheadSetting names one Figure 13 configuration.
type OverheadSetting int

const (
	// Idle: stock apps only, screen off.
	Idle OverheadSetting = iota
	// NoInteraction: screen on, popular apps installed, untouched.
	NoInteraction
	// UseYouTube: video playback in the foreground.
	UseYouTube
	// Use10Apps: ten apps used in turn.
	Use10Apps
	// Use30Apps: thirty apps used in turn.
	Use30Apps
)

func (o OverheadSetting) String() string {
	switch o {
	case Idle:
		return "Idle"
	case NoInteraction:
		return "No Interaction"
	case UseYouTube:
		return "Use YouTube"
	case Use10Apps:
		return "Use 10 apps"
	case Use30Apps:
		return "Use 30 apps"
	default:
		return "unknown"
	}
}

// OverheadSettings lists the Figure 13 settings in paper order.
func OverheadSettings() []OverheadSetting {
	return []OverheadSetting{Idle, NoInteraction, UseYouTube, Use10Apps, Use30Apps}
}

// Duration of one overhead run.
const OverheadRunLength = 30 * time.Minute

// InstallOverheadSetting arranges the requested Figure 13 configuration on
// s. The seed perturbs session lengths so repeated runs produce the error
// bars the paper reports (8 runs per setting).
func InstallOverheadSetting(s *sim.Sim, setting OverheadSetting, seed int64) {
	rng := stats.NewRand(seed)
	switch setting {
	case Idle:
		startFleet(s, rng, 3)
	case NoInteraction:
		s.Power.SetUserScreen(true)
		startFleet(s, rng, 20)
	case UseYouTube:
		s.World.SetUserPresent(true)
		s.Power.SetUserScreen(true)
		startFleet(s, rng, 10)
		yt := apps.NewYouTube(s, buggyUID)
		yt.Start()
		jitterEvery(s, rng, 20*time.Second, yt.Interact)
	case Use10Apps:
		cycleApps(s, rng, 10)
	case Use30Apps:
		cycleApps(s, rng, 30)
	}
}

// startFleet launches n background sync apps with seed-jittered start
// offsets, so repeated runs of a setting differ slightly — the source of
// Figure 13's error bars.
func startFleet(s *sim.Sim, rng *rand.Rand, n int) {
	for _, a := range apps.NewFleet(s, fleetUIDBase, n) {
		a := a
		s.Engine.Schedule(time.Duration(rng.Intn(30))*time.Second, a.Start)
	}
}

// jitterEvery invokes fn at a jittered cadence around period.
func jitterEvery(s *sim.Sim, rng *rand.Rand, period time.Duration, fn func()) {
	var next func()
	next = func() {
		fn()
		d := period/2 + time.Duration(rng.Int63n(int64(period)))
		s.Engine.Schedule(d, next)
	}
	s.Engine.Schedule(period, next)
}

// cycleApps uses n apps in turn over the run, splitting the 30 minutes
// evenly with seed-jittered boundaries.
func cycleApps(s *sim.Sim, rng *rand.Rand, n int) {
	s.World.SetUserPresent(true)
	s.Power.SetUserScreen(true)
	startFleet(s, rng, n)
	slot := OverheadRunLength / time.Duration(n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		u := sessionUIDBase + power.UID(i)
		kind := sessionKind(rng.Intn(int(numSessionKinds)))
		d := slot - time.Duration(rng.Intn(5))*time.Second
		k := kind
		dd := d
		s.Engine.ScheduleAt(at, func() { runSession(s, u, k, dd) })
		at += slot
	}
}

// BatteryDay arranges the §7.6 end-to-end scenario: with one buggy GPS app
// in the system, play music for 2 hours, watch YouTube for 1 hour, browse
// for 30 minutes, then keep the phone on standby. The ambient cellular
// standby draw of a real handset is charged to the system so lifetimes land
// in the realistic range ("Android w/o lease runs out of battery after
// around 12 hours, while LeaseOS lasts for 15 hours").
func BatteryDay(s *sim.Sim) {
	// Ambient draw: weak-signal cellular standby plus OS housekeeping.
	s.Meter.Set(power.SystemUID, power.Radio, "cell-standby", 0.45)

	// The buggy GPS app, present the whole day.
	buggy := apps.NewGPSLogger(s, buggyUID)
	buggy.Start()

	spotify := apps.NewSpotify(s, buggyUID+1)
	yt := apps.NewYouTube(s, buggyUID+2)
	browser := apps.NewForeground(s, buggyUID+3, "Browser")

	s.World.SetUserPresent(true)
	spotify.Start()
	s.Engine.ScheduleAt(2*time.Hour, func() {
		spotify.Stop()
		s.Power.SetUserScreen(true)
		yt.Start()
	})
	s.Engine.ScheduleAt(3*time.Hour, func() {
		yt.Stop()
		browser.Start()
	})
	s.Engine.ScheduleAt(3*time.Hour+30*time.Minute, func() {
		browser.Stop()
		s.Power.SetUserScreen(false)
		s.World.SetUserPresent(false)
	})
}
