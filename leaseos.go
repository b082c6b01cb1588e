// Package leaseos is a Go reproduction of "A Case for Lease-Based,
// Utilitarian Resource Management on Mobile Devices" (Hu, Liu, Huang —
// ASPLOS 2019).
//
// The paper implements LeaseOS inside Android; this library reproduces the
// whole system in a deterministic discrete-event simulator: the Android
// system services that own energy-relevant resources (wakelocks, screen,
// Wi-Fi locks, GPS and sensor listeners, audio sessions), an app framework
// with CPU-sleep-gated execution, per-app energy accounting, models of the
// 20 buggy apps the paper evaluates, the baseline policies (Doze, DefDroid,
// single-term throttling) — and, at the centre, the lease-based utilitarian
// resource manager itself.
//
// # Quick start
//
//	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
//	wl := s.Power.NewWakelock(100, leaseos.Wakelock, "my-lock")
//	wl.Acquire()            // a lease is created behind the scenes
//	s.Run(30 * time.Minute) // idle holding is detected as LHB and deferred
//	fmt.Println(s.Meter.EnergyOfJ(100), "J wasted")
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-versus-measured record
// of every table and figure.
package leaseos

import (
	"repro/internal/android/hooks"
	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
)

// Simulation assembly.
type (
	// Sim is a fully-assembled simulated device; see sim.Sim.
	Sim = sim.Sim
	// Options configures New.
	Options = sim.Options
	// Policy selects the resource-management mechanism.
	Policy = sim.Policy
)

// The available policies.
const (
	// Vanilla grants resources until released, like stock mobile OSes.
	Vanilla = sim.Vanilla
	// LeaseOS is the paper's contribution.
	LeaseOS = sim.LeaseOS
	// DozeDefault and DozeAggressive are Android Doze variants.
	DozeDefault    = sim.DozeDefault
	DozeAggressive = sim.DozeAggressive
	// DefDroid is fine-grained threshold throttling.
	DefDroid = sim.DefDroid
	// Throttle is a pure time-based, single-term throttler.
	Throttle = sim.Throttle
)

// New assembles a simulated device under the chosen policy.
func New(opts Options) *Sim { return sim.New(opts) }

// ParsePolicy resolves a policy name ("vanilla", "leaseos", "doze",
// "doze-aggressive", "defdroid", "throttle").
func ParsePolicy(s string) (Policy, error) { return sim.ParsePolicy(s) }

// Lease mechanism.
type (
	// LeaseConfig is the lease policy's knobs (terms, τ, the ablation
	// switches); zero fields take the paper's defaults (5 s term, 25 s
	// deferral). The classifier's thresholds are fixed.
	LeaseConfig = lease.Config
	// LeaseManager is the lease manager service.
	LeaseManager = lease.Manager
	// LeaseState is a lease's lifecycle state (Figure 5).
	LeaseState = lease.State
	// Behavior classifies one term of resource usage (Table 1).
	Behavior = lease.Behavior
	// TermRecord is the per-term lease stat.
	TermRecord = lease.TermRecord
	// UtilityCounter is the optional app-supplied custom utility callback.
	UtilityCounter = lease.UtilityCounter
	// UtilityFunc adapts a function to a UtilityCounter.
	UtilityFunc = lease.UtilityFunc
)

// Lease states and behaviour classes.
const (
	Active   = lease.Active
	Inactive = lease.Inactive
	Deferred = lease.Deferred
	Dead     = lease.Dead

	Normal = lease.Normal
	FAB    = lease.FAB
	LHB    = lease.LHB
	LUB    = lease.LUB
	EUB    = lease.EUB
)

// DefaultLeaseConfig returns the paper's default lease policy.
func DefaultLeaseConfig() LeaseConfig { return lease.DefaultConfig() }

// Resources.
type (
	// ResourceKind identifies a constrained resource type.
	ResourceKind = hooks.Kind
	// UID identifies an app for power attribution.
	UID = power.UID
)

// The resource kinds of paper Table 1.
const (
	Wakelock       = hooks.Wakelock
	ScreenWakelock = hooks.ScreenWakelock
	WifiLock       = hooks.WifiLock
	GPSListener    = hooks.GPSListener
	SensorListener = hooks.SensorListener
	AudioSession   = hooks.AudioSession
)

// Devices.
type DeviceProfile = device.Profile

// The evaluated phone profiles.
var (
	PixelXL  = device.PixelXL
	Nexus6   = device.Nexus6
	Nexus4   = device.Nexus4
	GalaxyS4 = device.GalaxyS4
	MotoG    = device.MotoG
	Nexus5X  = device.Nexus5X
)

// App models.
type (
	// App is a runnable application model.
	App = apps.App
	// AppSpec is one Table 5 row: app, defect, trigger, constructor.
	AppSpec = apps.Spec
)

// Table5Apps returns the 20 buggy-app specifications of paper Table 5.
func Table5Apps() []AppSpec { return apps.Table5Specs() }

// Experiments.
type (
	// ExperimentResult is one regenerated table or figure.
	ExperimentResult = exp.Result
	// Experiment is a named, runnable artefact.
	Experiment = exp.Runner
)

// Experiments lists every regenerable table and figure in paper order.
// Quick mode shrinks the randomised sweeps.
func Experiments(quick bool) []Experiment { return exp.Runners(quick) }

// WithParallelism sets how many workers the experiment harness uses to fan
// independent simulations out across CPUs. n ≤ 0 restores the default
// (GOMAXPROCS); n = 1 selects the sequential reference path. Parallelism
// lives strictly across whole simulations — the event queue inside one Sim
// stays single-threaded — so rendered experiment output is byte-identical
// at any worker count.
func WithParallelism(n int) { exp.SetParallelism(n) }

// RunExperiments executes the given experiments and returns their results
// in the same order, fanning independent simulations out across the
// harness worker pool (see WithParallelism). Wall-clock micro benchmarks
// (Table 4) always run in isolation after the parallel batch drains.
func RunExperiments(es []Experiment) []ExperimentResult { return exp.RunSelected(es) }
