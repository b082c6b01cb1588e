package apps

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/android/sensor"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LongHolder is the §5.1 test app behind Figure 9: it "acquires a wakelock
// and holds the wakelock for 30 minutes without doing anything and never
// releases it".
type LongHolder struct {
	base
}

// NewLongHolder builds the model.
func NewLongHolder(s *sim.Sim, uid power.UID) *LongHolder {
	return &LongHolder{base: newBase(s, uid, "LongHolder")}
}

// Start implements App.
func (a *LongHolder) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "longhold").Acquire()
}

// Slice is one phase of a SliceApp trace.
type Slice struct {
	// Misbehave selects the phase's behaviour: an idle hold (LHB) when
	// true, a busy well-utilised hold when false.
	Misbehave bool
	Length    time.Duration
}

// RandomSlices generates n misbehaving and n normal slices of random length
// in (0, maxLen], interleaved — the Figure 12 test-case generator ("the
// test app generates 1000 misbehavior slices and 1000 normal slices, each
// with a random length from 0 to 10min").
func RandomSlices(seed int64, n int, maxLen time.Duration) []Slice {
	rng := stats.NewRand(seed)
	slices := make([]Slice, 0, 2*n)
	for i := 0; i < n; i++ {
		slices = append(slices,
			Slice{Misbehave: true, Length: time.Duration(rng.Int63n(int64(maxLen))) + time.Second},
			Slice{Misbehave: false, Length: time.Duration(rng.Int63n(int64(maxLen))) + time.Second},
		)
	}
	return slices
}

// SliceApp replays a trace of misbehaviour/normal slices while holding a
// wakelock: during a normal slice it does steady useful work (high
// utilisation), during a misbehaving slice it idles (LHB). It drives the
// Figure 12 sensitivity experiment.
type SliceApp struct {
	base
	slices []Slice
	idx    int
	busy   bool

	// misbehaving mirrors the current slice's phase; Figure 12 samples it
	// to split energy into wasted and legitimate.
	misbehaving bool
}

// NewSliceApp builds the model.
func NewSliceApp(s *sim.Sim, uid power.UID, slices []Slice) *SliceApp {
	return &SliceApp{base: newBase(s, uid, "SliceApp"), slices: slices}
}

// Start implements App.
func (a *SliceApp) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "slices").Acquire()
	a.proc.Every(time.Second, func() {
		if a.busy {
			a.proc.RunWork(400*time.Millisecond, nil)
		}
	})
	a.nextSlice()
}

// Misbehaving reports whether the current slice is a misbehaving one.
func (a *SliceApp) Misbehaving() bool { return a.misbehaving }

func (a *SliceApp) nextSlice() {
	if a.idx >= len(a.slices) {
		a.busy = false
		a.misbehaving = false
		return
	}
	sl := a.slices[a.idx]
	a.idx++
	a.misbehaving = sl.Misbehave
	a.busy = !sl.Misbehave
	// Slice transitions are wall-clock (the trace advances regardless of
	// CPU state), so schedule on the engine, not the process.
	a.s.Engine.Schedule(sl.Length, a.nextSlice)
}

// InteractionApp supports the Figure 14 end-to-end latency experiment: a
// button-click flow whose critical path crosses one leased resource
// (sensor, wakelock or GPS). Latency is measured from the interaction to
// the resulting UI update.
type InteractionApp struct {
	base
	kind hooks.Kind

	// Latencies collects one duration per completed flow.
	Latencies []time.Duration
}

// NewInteractionApp builds a flow app for the given resource kind
// (hooks.SensorListener, hooks.Wakelock or hooks.GPSListener).
func NewInteractionApp(s *sim.Sim, uid power.UID, kind hooks.Kind) *InteractionApp {
	a := &InteractionApp{base: newBase(s, uid, "flow-"+kind.String()), kind: kind}
	a.proc.SetForeground(true)
	return a
}

// Click runs one interaction flow and records its end-to-end latency. The
// extra parameter adds per-operation management latency (e.g. lease checks)
// to the resource-acquisition step.
func (a *InteractionApp) Click(extra time.Duration) {
	start := a.s.Engine.Now()
	a.proc.NoteInteraction()
	finish := func() {
		a.proc.NoteUIUpdate()
		a.Latencies = append(a.Latencies, a.s.Engine.Now()-start)
	}
	// The flow: input handling work, a resource acquisition (descriptor
	// creation + IPC + optional governor latency), resource-driven wait,
	// then UI rendering work.
	a.proc.RunWork(30*time.Millisecond, func() {
		ipc := a.s.Registry.IPC() + extra
		a.s.Engine.Schedule(ipc, func() {
			switch a.kind {
			case hooks.SensorListener:
				// Wait for the next sensor reading (fresh registration).
				reg := a.s.Sensors.Register(a.UID(), sensor.Accelerometer, 0, nil)
				a.s.Engine.Schedule(200*time.Millisecond, func() {
					reg.Unregister()
					a.proc.RunWork(50*time.Millisecond, finish)
				})
			case hooks.GPSListener:
				// Wait for a fix: lock time plus rendering.
				req := a.s.Location.Register(a.UID(), time.Second, nil)
				a.s.Engine.Schedule(2*time.Second, func() {
					req.Unregister()
					a.proc.RunWork(100*time.Millisecond, finish)
				})
			default:
				// Wakelock-protected computation.
				wl := a.s.Power.NewWakelock(a.UID(), hooks.Wakelock, "flow")
				wl.Acquire()
				a.proc.RunWork(20*time.Millisecond, func() {
					wl.Release()
					finish()
				})
			}
		})
	})
}
