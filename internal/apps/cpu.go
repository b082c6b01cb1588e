package apps

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/android/powermgr"
	"repro/internal/power"
	"repro/internal/sim"
)

// Facebook models the Facebook battery-drain defect (Table 5 row 1,
// matching the iOS release the paper's introduction dissects): a buggy
// teardown path leaks the audio session and its companion wakelock, leaving
// "the app doing nothing but staying awake in the background draining the
// battery".
type Facebook struct {
	base
}

// NewFacebook builds the model.
func NewFacebook(s *sim.Sim, uid power.UID) *Facebook {
	return &Facebook{base: newBase(s, uid, "Facebook")}
}

// Start implements App.
func (a *Facebook) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "fb-audio-wl").Acquire()
	a.s.Audio.NewLock(a.UID()).Acquire() // the leaked audio session: nothing ever plays
}

// Torch models the CyanogenMod Torch defect (Table 5 row 2): the flashlight
// service acquires a wakelock "only if it isn't held already" — and then
// holds it forever doing nothing at all. This is also the §5.1 test app
// used for Figure 9.
type Torch struct {
	base
}

// NewTorch builds the model.
func NewTorch(s *sim.Sim, uid power.UID) *Torch {
	return &Torch{base: newBase(s, uid, "Torch")}
}

// Start implements App.
func (a *Torch) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "torch").Acquire()
}

// Kontalk models the Kontalk defect (§2.1 case II, Table 5 row 3): the
// messaging service acquires a wakelock in onCreate and releases it only in
// onDestroy; after the brief authentication hand-shake the CPU is forced to
// stay up with nothing to do — and the service is never destroyed.
type Kontalk struct {
	base
	wl *powermgr.Wakelock
}

// NewKontalk builds the model.
func NewKontalk(s *sim.Sim, uid power.UID) *Kontalk {
	return &Kontalk{base: newBase(s, uid, "Kontalk")}
}

// Start implements App.
func (a *Kontalk) Start() {
	// onCreate: acquire the wakelock; the release sits in onDestroy, which
	// never runs.
	a.wl = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "kontalk-svc")
	a.wl.Acquire()
	// Authenticate: some CPU, one round trip — then nothing, forever.
	a.proc.RunWork(2*time.Second, func() {
		a.proc.NetworkRequest(time.Second, nil)
	})
}

// WakelockID exposes the service wakelock's kernel-object id for profilers
// (Figure 3 samples its per-minute holding time).
func (a *Kontalk) WakelockID() uint64 { return a.wl.ObjectID() }

// K9 models the K-9 Mail defect (§2.1 case I, Table 5 row 4): the push
// service acquires a wakelock and loops over a network request; when the
// network is disconnected or the mail server fails, the exception handler
// retries immediately and indefinitely. Under a disconnected network the
// loop spins the CPU at full utilisation while making no progress — the
// Low-Utility signature of Figure 4; with a reachable but broken server the
// loop blocks on the radio with near-zero CPU — the Figure 2 pattern.
type K9 struct {
	base
	wl *powermgr.Wakelock

	// Bound callbacks, created once per instance: the defect is a tight
	// retry loop, and building its closures inside iterate would allocate
	// two per retry.
	serialized func()
	pushReply  func(error)
	processed  func()
	pushAgain  func()
}

// NewK9 builds the model.
func NewK9(s *sim.Sim, uid power.UID) *K9 {
	a := &K9{base: newBase(s, uid, "K-9")}
	a.serialized = func() { a.proc.NetworkRequest(3*time.Second, a.pushReply) }
	a.pushReply = func(err error) {
		if err != nil {
			// The defect: catch, log, retry immediately — no back-off.
			a.proc.ThrowException()
			a.iterate()
			return
		}
		// Mail fetched: process it and sleep until the next push cycle.
		a.proc.RunWork(time.Second, a.processed)
	}
	a.processed = func() {
		a.wl.Release()
		a.proc.AlarmAfter(15*time.Minute, a.pushAgain)
	}
	a.pushAgain = a.startPush
	return a
}

// Start implements App.
func (a *K9) Start() {
	a.wl = a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "k9-push")
	a.startPush()
}

func (a *K9) startPush() {
	a.wl.Acquire()
	a.iterate()
}

func (a *K9) iterate() {
	// Serialize folders, then send the push request (Figure 8's ➋ and ➌).
	a.proc.RunWork(30*time.Millisecond, a.serialized)
}

// WakelockID exposes the push wakelock's kernel-object id for profilers
// (Figures 2 and 4 sample its per-minute holding time).
func (a *K9) WakelockID() uint64 { return a.wl.ObjectID() }

// ServalMesh models the Serval Mesh defect (Table 5 row 5): when not
// connected to a Wi-Fi access point the mesh service keeps scanning and
// erroring in a tight loop under a held wakelock.
type ServalMesh struct {
	base
}

// NewServalMesh builds the model.
func NewServalMesh(s *sim.Sim, uid power.UID) *ServalMesh {
	return &ServalMesh{base: newBase(s, uid, "ServalMesh")}
}

// Start implements App.
func (a *ServalMesh) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "serval").Acquire()
	a.proc.Every(3*time.Second, func() {
		if a.s.World.NetworkOnWiFi() {
			return
		}
		a.proc.ThrowException() // scan fails: no access point
		a.proc.RunWork(500*time.Millisecond, nil)
	})
}

// TextSecure models the TextSecure defect (Table 5 row 6): a message-send
// retry loop that never backs off while the network is down.
type TextSecure struct {
	base
}

// NewTextSecure builds the model.
func NewTextSecure(s *sim.Sim, uid power.UID) *TextSecure {
	return &TextSecure{base: newBase(s, uid, "TextSecure")}
}

// Start implements App.
func (a *TextSecure) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "textsecure").Acquire()
	a.proc.Every(4*time.Second, func() {
		a.proc.NetworkRequest(time.Second, func(err error) {
			if err != nil {
				a.proc.ThrowException()
				a.proc.RunWork(300*time.Millisecond, nil)
			}
		})
	})
}
