package main

// A scenario file describes a complete simulation — device, policy,
// installed apps, and a timeline of environment changes — so experiments
// can be scripted without writing Go. `leasesim run -scenario` runs one.
//
// Format:
//
//	{
//	  "device":   "Google Pixel XL",
//	  "policy":   "leaseos",
//	  "duration": "30m",
//	  "apps": [
//	    {"name": "K-9", "uid": 100},
//	    {"name": "runkeeper", "uid": 101}
//	  ],
//	  "env": [
//	    {"at": "0s",  "network": "cellular"},
//	    {"at": "10m", "network": "down", "server": "bad"},
//	    {"at": "20m", "gps": "weak", "motion_mps": 2.5, "user": "present"}
//	  ]
//	}
//
// Every env field is optional per step; omitted fields keep their value.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/power"
	"repro/internal/sim"
)

// appEntry is one installed app.
type appEntry struct {
	// Name is a name lookupApp knows: a Table 5 app, runkeeper, spotify,
	// haven, or a "(fixed)" app.
	Name string `json:"name"`
	// UID is the app's process uid (must be unique and non-zero).
	UID int `json:"uid"`

	named namedApp // resolved by parseScenario
}

// envStep is one timeline entry; zero-valued fields are left unchanged.
type envStep struct {
	At string `json:"at"`
	// Network: "wifi", "cellular" or "down".
	Network string `json:"network,omitempty"`
	// Server: "ok" or "bad".
	Server string `json:"server,omitempty"`
	// GPS: "good", "weak" or "none".
	GPS string `json:"gps,omitempty"`
	// MotionMps sets movement speed; zero or negative stops motion.
	MotionMps *float64 `json:"motion_mps,omitempty"`
	// User: "present" or "away" (also drives the screen).
	User string `json:"user,omitempty"`

	at    time.Duration    // At, parsed
	apply []func(*sim.Sim) // the step's changes, in field order
}

// envValues holds, per env field, what each of its values does to a world.
var envValues = map[string]map[string]func(*sim.Sim){
	"network": {
		"wifi":     func(s *sim.Sim) { s.World.SetNetwork(true, true) },
		"cellular": func(s *sim.Sim) { s.World.SetNetwork(true, false) },
		"down":     func(s *sim.Sim) { s.World.SetNetwork(false, false) },
	},
	"server": {
		"ok":  func(s *sim.Sim) { s.World.SetServerHealthy(true) },
		"bad": func(s *sim.Sim) { s.World.SetServerHealthy(false) },
	},
	"gps": {
		"good": func(s *sim.Sim) { s.World.SetGPS(env.GPSGood) },
		"weak": func(s *sim.Sim) { s.World.SetGPS(env.GPSWeak) },
		"none": func(s *sim.Sim) { s.World.SetGPS(env.GPSNone) },
	},
	"user": {
		"present": func(s *sim.Sim) { s.World.SetUserPresent(true); s.Power.SetUserScreen(true) },
		"away":    func(s *sim.Sim) { s.World.SetUserPresent(false); s.Power.SetUserScreen(false) },
	},
}

// scenario is a parsed scenario file: the fields as written, and what
// parseScenario resolved them to.
type scenario struct {
	Device   string     `json:"device"`
	Policy   string     `json:"policy"`
	Duration string     `json:"duration"`
	Apps     []appEntry `json:"apps"`
	Env      []envStep  `json:"env"`

	opts   sim.Options
	length time.Duration
}

// parseScenario reads and validates a scenario, resolving every name,
// duration and env value in it once.
func parseScenario(r io.Reader) (*scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, err
	}
	if sc.Duration == "" {
		sc.Duration = "30m"
	}
	if sc.Policy == "" {
		sc.Policy = "leaseos"
	}
	if sc.Device == "" {
		sc.Device = device.PixelXL.Name
	}
	var err error
	if sc.length, err = time.ParseDuration(sc.Duration); err != nil || sc.length <= 0 {
		return nil, fmt.Errorf("bad duration %q", sc.Duration)
	}
	if sc.opts.Policy, err = sim.ParsePolicy(sc.Policy); err != nil {
		return nil, err
	}
	if sc.opts.Device, err = device.ByName(sc.Device); err != nil {
		return nil, err
	}
	if len(sc.Apps) == 0 {
		return nil, fmt.Errorf("no apps listed")
	}
	seen := map[int]bool{}
	for i, a := range sc.Apps {
		if a.UID <= 0 {
			return nil, fmt.Errorf("app %q needs a positive uid", a.Name)
		}
		if seen[a.UID] {
			return nil, fmt.Errorf("duplicate uid %d", a.UID)
		}
		seen[a.UID] = true
		if sc.Apps[i].named, err = lookupApp(a.Name); err != nil {
			return nil, err
		}
	}
	for i := range sc.Env {
		step := &sc.Env[i]
		if step.at, err = time.ParseDuration(step.At); err != nil {
			return nil, fmt.Errorf("env[%d].at: %w", i, err)
		}
		add := func(field, value string) {
			if value == "" || err != nil {
				return
			}
			if apply, ok := envValues[field][value]; ok {
				step.apply = append(step.apply, apply)
			} else {
				err = fmt.Errorf("env[%d]: unknown %s %q", i, field, value)
			}
		}
		add("network", step.Network)
		add("server", step.Server)
		add("gps", step.GPS)
		if mps := step.MotionMps; mps != nil {
			step.apply = append(step.apply, func(s *sim.Sim) { s.World.SetMotion(*mps > 0, max(*mps, 0)) })
		}
		add("user", step.User)
		if err != nil {
			return nil, err
		}
	}
	return &sc, nil
}

// run builds the simulation, installs the apps, applies the environment
// timeline, and runs to the configured horizon. Scenario files do not apply
// an app's trigger: the env timeline is the single source of environmental
// truth.
func (sc *scenario) run() (*sim.Sim, []apps.App) {
	s := sim.New(sc.opts)
	installed := make([]apps.App, len(sc.Apps))
	for i, entry := range sc.Apps {
		installed[i], _ = entry.named.build(s, power.UID(entry.UID))
	}
	for _, step := range sc.Env {
		s.Engine.ScheduleAt(step.at, func() {
			for _, apply := range step.apply {
				apply(s)
			}
		})
	}
	for _, app := range installed {
		app.Start()
	}
	s.Run(sc.length)
	return s, installed
}
