// Package sim assembles a complete simulated device: the event engine,
// power meter, environment, the Android system services, the app framework,
// and one resource-management policy (vanilla, LeaseOS, Doze, DefDroid, or
// the single-term throttler). Experiments and app models build on this.
package sim

import (
	"fmt"
	"time"

	"repro/internal/android/appfw"
	"repro/internal/android/binder"
	"repro/internal/android/holdsvc"
	"repro/internal/android/hooks"
	"repro/internal/android/location"
	"repro/internal/android/powermgr"
	"repro/internal/android/sensor"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/lease"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/simclock"
)

// Policy selects the resource-management mechanism under test.
type Policy int

const (
	// Vanilla is stock resource management: grants persist until released.
	Vanilla Policy = iota
	// LeaseOS is the paper's lease-based utilitarian manager.
	LeaseOS
	// DozeDefault is stock Android Doze with its conservative idle detector.
	DozeDefault
	// DozeAggressive is Doze forced on at experiment start (Table 5's Doze*).
	DozeAggressive
	// DefDroid is threshold-based fine-grained throttling.
	DefDroid
	// Throttle is the pure time-based, single-term throttler of §7.4.
	Throttle
)

var policyNames = map[Policy]string{
	Vanilla: "vanilla", LeaseOS: "leaseos", DozeDefault: "doze",
	DozeAggressive: "doze-aggressive", DefDroid: "defdroid", Throttle: "throttle",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name as used on CLI flags. It scans
// Policies() in comparison order rather than ranging over the name map, so
// resolution order is deterministic even if a duplicate name ever sneaks in.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if policyNames[p] == s {
			return p, nil
		}
	}
	return Vanilla, fmt.Errorf("sim: unknown policy %q (want vanilla|leaseos|doze|doze-aggressive|defdroid|throttle)", s)
}

// Policies lists every policy, in comparison order.
func Policies() []Policy {
	return []Policy{Vanilla, LeaseOS, DozeDefault, DozeAggressive, DefDroid, Throttle}
}

// Options configures a simulation.
type Options struct {
	// Device profile; zero value defaults to the Pixel XL (the paper's
	// main experiment phone, §7.1).
	Device device.Profile
	// Policy under test.
	Policy Policy
	// Lease manager configuration (LeaseOS only); zero fields take
	// defaults. The baselines run at their fixed parameters
	// (internal/policy).
	Lease lease.Config
}

// Sim is an assembled device simulation.
type Sim struct {
	Engine   *simclock.Engine
	Meter    *power.Meter
	Registry *binder.Registry
	World    *env.Environment
	Profile  device.Profile
	Policy   Policy

	Power    *powermgr.Service
	Location *location.Service
	Sensors  *sensor.Service
	Wifi     *holdsvc.Service
	Audio    *holdsvc.Service
	Apps     *appfw.Framework

	// Leases is non-nil only under the LeaseOS policy.
	Leases *lease.Manager
	// Doze, DefDroidGov, ThrottleGov are non-nil only under their policies.
	Doze        *policy.Doze
	DefDroidGov *policy.DefDroid
	ThrottleGov *policy.Throttle

	// Gov is the governor in effect (hooks.Nop for Vanilla).
	Gov hooks.Governor

	// opts is the normalized Options the world was built from; Reuse
	// compares against it to decide whether a reset suffices.
	opts Options
}

// normalize canonicalises opts so that two option sets describing the same
// world compare equal (Reuse relies on this).
func normalize(opts Options) Options {
	if opts.Device.Name == "" {
		opts.Device = device.PixelXL
	}
	return opts
}

// New builds a simulation.
func New(opts Options) *Sim {
	opts = normalize(opts)
	prof := opts.Device

	engine := simclock.NewEngine()
	meter := power.NewMeter(engine)
	registry := binder.NewRegistry()
	world := env.New()

	s := &Sim{
		Engine: engine, Meter: meter, Registry: registry, World: world,
		Profile: prof, Policy: opts.Policy, opts: opts,
	}

	// Build services and framework with the no-op governor first, then
	// swap in the real policy: some policies need references to the
	// framework that do not exist yet.
	nop := hooks.Nop{}
	s.Power = powermgr.New(engine, meter, registry, prof, nop)
	s.Location = location.New(engine, meter, registry, prof, world, nop)
	s.Sensors = sensor.New(engine, meter, registry, prof, nop)
	// Wi-Fi locks keep the radio out of power-save mode while held (the
	// ConnectBot defect, Table 5, held one off Wi-Fi); audio sessions keep
	// the output path powered (the Facebook iOS leak of the paper's
	// introduction left an app "doing nothing but staying awake in the
	// background draining the battery").
	s.Wifi = holdsvc.New(engine, meter, registry, nop, "wifi", hooks.WifiLock, power.WiFi, prof.WiFiLockW)
	s.Audio = holdsvc.New(engine, meter, registry, nop, "audio", hooks.AudioSession, power.Audio, prof.AudioW)
	s.Apps = appfw.New(engine, meter, prof, world, s.Power, registry, nop)

	var gov hooks.Governor = nop
	switch opts.Policy {
	case Vanilla:
	case LeaseOS:
		s.Leases = lease.NewManager(engine, s.Apps, opts.Lease)
		gov = s.Leases
	case DozeDefault, DozeAggressive:
		s.Doze = policy.NewDoze(engine, world, opts.Policy == DozeAggressive, s.foreground, s.Apps.Reevaluate)
		gov = s.Doze
	case DefDroid:
		s.DefDroidGov = policy.NewDefDroid(engine)
		gov = s.DefDroidGov
	case Throttle:
		s.ThrottleGov = policy.NewThrottle(engine)
		gov = s.ThrottleGov
	default:
		panic(fmt.Sprintf("sim: unknown policy %v", opts.Policy))
	}
	s.Gov = gov

	s.Power.SetGovernor(gov)
	s.Location.SetGovernor(gov)
	s.Sensors.SetGovernor(gov)
	s.Wifi.SetGovernor(gov)
	s.Audio.SetGovernor(gov)
	s.Apps.SetGovernor(gov)
	return s
}

// Reuse recycles a previously-built world for a fresh run of the same
// configuration: when opts (after normalization) matches the options prev
// was built with, every component is Reset in dependency order and prev is
// returned; otherwise a new world is built with New. A nil prev always
// builds fresh. The reset path skips the whole ~60k-allocation world
// assembly, which is what makes fleet-scale sweeps (one world per worker,
// thousands of devices each) affordable.
//
// Reset order matters twice over: the engine must go first (everything
// else's pending events die with it) and the meter before the services
// (their draw slots die with it); the Doze governor must go last so its
// re-armed initial event receives the same sequence number it gets in a
// fresh world, keeping reused runs byte-identical to from-scratch runs.
func Reuse(prev *Sim, opts Options) *Sim {
	opts = normalize(opts)
	if prev == nil || opts != prev.opts {
		return New(opts)
	}
	s := prev
	s.Engine.Reset()
	s.Meter.Reset()
	s.Registry.Reset()
	s.World.Reset()
	s.Power.Reset()
	s.Location.Reset()
	s.Sensors.Reset()
	s.Wifi.Reset()
	s.Audio.Reset()
	s.Apps.Reset()
	switch {
	case s.Leases != nil:
		s.Leases.Reset()
	case s.DefDroidGov != nil:
		s.DefDroidGov.Reset()
	case s.ThrottleGov != nil:
		s.ThrottleGov.Reset()
	case s.Doze != nil:
		s.Doze.Reset()
	}
	return s
}

func (s *Sim) foreground(uid power.UID) bool {
	p := s.Apps.ProcessOf(uid)
	return p != nil && p.Foreground()
}

// Now returns the current virtual time.
func (s *Sim) Now() simclock.Time { return s.Engine.Now() }

// Run advances the simulation by d.
func (s *Sim) Run(d time.Duration) { s.Engine.RunUntil(s.Engine.Now() + d) }
