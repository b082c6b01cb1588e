package apps

import (
	"fmt"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/android/location"
	"repro/internal/android/powermgr"
	"repro/internal/android/sensor"
	"repro/internal/power"
	"repro/internal/sim"
)

// RunKeeper models the fitness tracker of the §7.4 usability comparison: it
// records location and sensor data in the background while the user runs.
// Every fix is processed (track points written), the device moves, so the
// GPS utility is genuinely high — LeaseOS must keep renewing its leases.
type RunKeeper struct {
	base
	req *location.Request
	reg *sensor.Registration

	// TrackPoints counts recorded fixes: the §7.4 disruption metric is a
	// gap in this stream.
	TrackPoints int
}

// NewRunKeeper builds the model.
func NewRunKeeper(s *sim.Sim, uid power.UID) *RunKeeper {
	return &RunKeeper{base: newBase(s, uid, "RunKeeper")}
}

// Start implements App.
func (a *RunKeeper) Start() {
	// Fitness trackers hold a partial wakelock for the duration of the
	// workout so track points are processed with the screen off.
	wl := a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "runkeeper-track")
	wl.Acquire()
	// Starting a workout initialises the session (route storage, GPS
	// warm-up, audio cue) — real CPU work in the first lease term.
	a.proc.RunWork(600*time.Millisecond, nil)
	a.req = a.s.Location.Register(a.UID(), 2*time.Second, func(location.Fix) {
		a.TrackPoints++
		// Write the track point, map-match, update pace statistics.
		a.proc.RunWork(100*time.Millisecond, nil)
	})
	a.reg = a.s.Sensors.Register(a.UID(), sensor.Accelerometer, 500*time.Millisecond, func(sensor.Event) {
		a.proc.RunWork(15*time.Millisecond, nil) // step counting
	})
}

// Stop implements App.
func (a *RunKeeper) Stop() {
	a.base.Stop()
	if a.req != nil {
		a.req.Unregister()
	}
	if a.reg != nil {
		a.reg.Unregister()
	}
}

// Spotify models background music streaming (§7.4): an audio session, a
// wakelock for the decode pipeline, steady decode work, and periodic
// network prefetches. All of it is well-utilised.
type Spotify struct {
	base
	session   *powermgr.Wakelock
	audio     interface{ Release() }
	stopPlay  func()
	stopFetch func()

	// SecondsPlayed counts seconds of audible playback; a stall under a
	// throttling policy shows up as this falling behind wall time.
	SecondsPlayed int
}

// NewSpotify builds the model.
func NewSpotify(s *sim.Sim, uid power.UID) *Spotify {
	return &Spotify{base: newBase(s, uid, "Spotify")}
}

// Start implements App.
func (a *Spotify) Start() {
	a.session = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "spotify-playback")
	a.session.Acquire()
	as := a.s.Audio.NewSession(a.UID())
	as.Acquire()
	a.audio = as
	// The decode-complete callback is bound once: building it inside the
	// per-second tick would allocate a closure every simulated second.
	decoded := func() { a.SecondsPlayed++ }
	a.stopPlay = a.proc.Every(time.Second, func() {
		// Decode the next second of audio. If we are suppressed, the timer
		// stalls and playback audibly stops — the disruption signal.
		a.proc.RunWork(120*time.Millisecond, decoded)
	})
	a.stopFetch = a.proc.Every(30*time.Second, func() {
		a.proc.NetworkRequest(2*time.Second, nil)
	})
}

// Stop implements App.
func (a *Spotify) Stop() {
	a.base.Stop()
	if a.stopPlay != nil {
		a.stopPlay()
	}
	if a.stopFetch != nil {
		a.stopFetch()
	}
	if a.audio != nil {
		a.audio.Release()
	}
	if a.session != nil {
		a.session.Release()
	}
}

// Haven models the §7.4 intrusion monitor: continuous accelerometer and
// camera sensing with per-event analysis work. No UI, no movement — its
// utility comes entirely from processing the data it asked for.
type Haven struct {
	base
	accel  *sensor.Registration
	camera *sensor.Registration

	// EventsAnalyzed counts processed sensor readings.
	EventsAnalyzed int
}

// NewHaven builds the model.
func NewHaven(s *sim.Sim, uid power.UID) *Haven {
	return &Haven{base: newBase(s, uid, "Haven")}
}

// Start implements App.
func (a *Haven) Start() {
	wl := a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "haven-monitor")
	wl.Acquire()
	// Bound once, like Spotify's decode callback: a closure built inside the
	// listener would be allocated on every sensor event.
	analyzed := func() { a.EventsAnalyzed++ }
	analyze := func(sensor.Event) {
		a.proc.RunWork(60*time.Millisecond, analyzed)
	}
	a.accel = a.s.Sensors.Register(a.UID(), sensor.Accelerometer, 500*time.Millisecond, analyze)
	a.camera = a.s.Sensors.Register(a.UID(), sensor.Camera, time.Second, analyze)
}

// Stop implements App.
func (a *Haven) Stop() {
	a.base.Stop()
	if a.accel != nil {
		a.accel.Unregister()
	}
	if a.camera != nil {
		a.camera.Unregister()
	}
}

// SyncApp models a well-behaved background app (Pandora, Transdroid, Flym —
// the §2.3 normal apps that do hold wakelocks for a while but use them):
// every period an alarm wakes the device, acquires a wakelock, syncs over
// the network, processes the result, and releases promptly.
type SyncApp struct {
	base
	wl       *powermgr.Wakelock
	stopSync func()
	period   time.Duration
	workDur  time.Duration
	netDur   time.Duration

	// Syncs counts completed cycles.
	Syncs int
}

// NewSyncApp builds a periodic-sync app.
func NewSyncApp(s *sim.Sim, uid power.UID, name string, period, work, net time.Duration) *SyncApp {
	return &SyncApp{base: newBase(s, uid, name), period: period, workDur: work, netDur: net}
}

// NewPandora, NewTransdroid and NewFlym are the §2.3 normal apps.
func NewPandora(s *sim.Sim, uid power.UID) *SyncApp {
	return NewSyncApp(s, uid, "Pandora", 2*time.Minute, time.Second, 2*time.Second)
}

// NewTransdroid builds the Transdroid model.
func NewTransdroid(s *sim.Sim, uid power.UID) *SyncApp {
	return NewSyncApp(s, uid, "Transdroid", 5*time.Minute, 800*time.Millisecond, 3*time.Second)
}

// NewFlym builds the Flym feed-reader model.
func NewFlym(s *sim.Sim, uid power.UID) *SyncApp {
	return NewSyncApp(s, uid, "Flym", 10*time.Minute, 1500*time.Millisecond, 4*time.Second)
}

// Start implements App.
func (a *SyncApp) Start() {
	a.stopSync = a.proc.AlarmEvery(a.period, func() {
		if a.stopped {
			return
		}
		// Real sync adapters create a fresh wakelock instance per cycle, so
		// every sync is a short-lived kernel object (and lease).
		wl := a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, a.name+"-sync")
		a.wl = wl
		wl.Acquire()
		done := func() {
			wl.Release()
			wl.Destroy()
		}
		a.proc.NetworkRequest(a.netDur, func(err error) {
			if err != nil {
				done()
				return
			}
			a.proc.RunWork(a.workDur, func() {
				a.Syncs++
				done()
			})
		})
	})
}

// Stop implements App.
func (a *SyncApp) Stop() {
	a.base.Stop()
	if a.stopSync != nil {
		a.stopSync()
	}
	if a.wl != nil {
		a.wl.Release()
	}
}

// Foreground models an interactively-used app (YouTube, a game, a browser):
// heavy CPU and network with continuous UI updates and user interactions.
// It exists for the overhead and latency experiments (Figures 13 and 14).
type Foreground struct {
	base
	stopRender func()
	stopFetch  func()
	netEvery   time.Duration
	renderWork time.Duration
}

// NewYouTube builds a video-playback foreground app.
func NewYouTube(s *sim.Sim, uid power.UID) *Foreground {
	return &Foreground{base: newBase(s, uid, "YouTube"),
		netEvery: 10 * time.Second, renderWork: 400 * time.Millisecond}
}

// NewForeground builds a generic interactive app.
func NewForeground(s *sim.Sim, uid power.UID, name string) *Foreground {
	return &Foreground{base: newBase(s, uid, name),
		netEvery: 20 * time.Second, renderWork: 200 * time.Millisecond}
}

// Start implements App.
func (a *Foreground) Start() {
	a.proc.SetForeground(true)
	// The render-complete callback is bound once: building it inside the
	// per-second tick would allocate a closure every simulated second.
	rendered := func() {
		if !a.stopped {
			a.proc.NoteUIUpdate()
		}
	}
	a.stopRender = a.proc.Every(time.Second, func() {
		a.proc.RunWork(a.renderWork, rendered)
	})
	a.stopFetch = a.proc.Every(a.netEvery, func() {
		a.proc.NetworkRequest(2*time.Second, nil)
	})
}

// Interact delivers one user interaction (tap/scroll).
func (a *Foreground) Interact() { a.proc.NoteInteraction() }

// Stop implements App.
func (a *Foreground) Stop() {
	a.base.Stop()
	if a.stopRender != nil {
		a.stopRender()
	}
	if a.stopFetch != nil {
		a.stopFetch()
	}
	a.proc.SetForeground(false)
}

// NewFleet builds n well-behaved background sync apps with staggered
// periods, for the 10-app and 30-app overhead settings of Figure 13.
func NewFleet(s *sim.Sim, firstUID power.UID, n int) []*SyncApp {
	fleet := make([]*SyncApp, n)
	for i := range fleet {
		period := time.Duration(60+15*(i%8)) * time.Second
		fleet[i] = NewSyncApp(s, firstUID+power.UID(i), fmt.Sprintf("app-%02d", i),
			period, 500*time.Millisecond, time.Second)
	}
	return fleet
}
