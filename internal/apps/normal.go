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
	a.s.Location.Register(a.UID(), 2*time.Second, func(location.Fix) {
		a.TrackPoints++
		// Write the track point, map-match, update pace statistics.
		a.proc.RunWork(100*time.Millisecond, nil)
	})
	a.s.Sensors.Register(a.UID(), sensor.Accelerometer, 500*time.Millisecond, func(sensor.Event) {
		a.proc.RunWork(15*time.Millisecond, nil) // step counting
	})
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
	as := a.s.Audio.NewLock(a.UID())
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

// Stop ends playback: the music stops when the user leaves.
func (a *Spotify) Stop() {
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
	a.s.Sensors.Register(a.UID(), sensor.Accelerometer, 500*time.Millisecond, analyze)
	a.s.Sensors.Register(a.UID(), sensor.Camera, time.Second, analyze)
}

// SyncApp models a well-behaved background app (Pandora, Transdroid, Flym —
// the §2.3 normal apps that do hold wakelocks for a while but use them):
// every period an alarm wakes the device, acquires a wakelock, syncs over
// the network, processes the result, and releases promptly.
type SyncApp struct {
	base
	period  time.Duration
	workDur time.Duration
	netDur  time.Duration
	free    *syncCycle // finished cycles, their callbacks bound

	// Syncs counts completed cycles.
	Syncs int
}

// syncCycle is one sync in flight. Its callbacks are bound when it is first
// made, and a finished cycle goes back to its app's free list: no callback
// of it is pending anywhere by then, so a reused cycle's bound callbacks
// never meet an earlier sync's.
type syncCycle struct {
	app       *SyncApp
	wl        *powermgr.Wakelock
	fetched   func(err error)
	processed func()
	next      *syncCycle
}

// NewSyncApp builds a periodic-sync app.
func NewSyncApp(s *sim.Sim, uid power.UID, name string, period, work, net time.Duration) *SyncApp {
	return &SyncApp{base: newBase(s, uid, name), period: period, workDur: work, netDur: net}
}

// Start implements App.
func (a *SyncApp) Start() {
	a.proc.AlarmEvery(a.period, a.sync)
}

func (a *SyncApp) sync() {
	c := a.free
	if c != nil {
		a.free, c.next = c.next, nil
	} else {
		c = &syncCycle{app: a}
		c.fetched, c.processed = c.onFetched, c.onProcessed
	}
	// Real sync adapters create a fresh wakelock instance per cycle, so
	// every sync is a short-lived kernel object (and lease).
	c.wl = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, a.name+"-sync")
	c.wl.Acquire()
	a.proc.NetworkRequest(a.netDur, c.fetched)
}

func (c *syncCycle) onFetched(err error) {
	if err != nil {
		c.done()
		return
	}
	c.app.proc.RunWork(c.app.workDur, c.processed)
}

func (c *syncCycle) onProcessed() {
	c.app.Syncs++
	c.done()
}

func (c *syncCycle) done() {
	c.wl.Release()
	c.wl.Destroy()
	c.wl = nil
	c.next, c.app.free = c.app.free, c
}

// Foreground models an interactively-used app (YouTube, a game, a browser):
// heavy CPU and network with continuous UI updates and user interactions.
// It exists for the overhead and latency experiments (Figures 13 and 14).
type Foreground struct {
	base
	stopped    bool
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

// Stop ends the session: the user leaves the app.
func (a *Foreground) Stop() {
	a.stopped = true
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
