// Package scenario loads JSON scenario files describing a complete
// simulation — device, policy, installed apps, and a timeline of
// environment changes — so experiments can be scripted without writing Go.
// cmd/leasesim runs them via -scenario.
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
package scenario

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

// AppEntry is one installed app.
type AppEntry struct {
	// Name is a Table 5 app name, or one of runkeeper, spotify, haven,
	// torch-fixed aliases ("K-9 (fixed)" etc. via fixed: prefix is not
	// needed — use the exported names below).
	Name string `json:"name"`
	// UID is the app's process uid (must be unique and non-zero).
	UID int `json:"uid"`
}

// EnvStep is one timeline entry; zero-valued fields are left unchanged.
type EnvStep struct {
	At string `json:"at"`
	// Network: "wifi", "cellular" or "down".
	Network string `json:"network,omitempty"`
	// Server: "ok" or "bad".
	Server string `json:"server,omitempty"`
	// GPS: "good", "weak" or "none".
	GPS string `json:"gps,omitempty"`
	// MotionMps sets movement speed; negative stops motion.
	MotionMps *float64 `json:"motion_mps,omitempty"`
	// User: "present" or "away" (also drives the screen).
	User string `json:"user,omitempty"`
}

// Scenario is a parsed scenario file.
type Scenario struct {
	Device   string     `json:"device"`
	Policy   string     `json:"policy"`
	Duration string     `json:"duration"`
	Apps     []AppEntry `json:"apps"`
	Env      []EnvStep  `json:"env"`
}

// Parse reads and validates a scenario.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
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
	if _, err := sc.runLength(); err != nil {
		return nil, err
	}
	if _, err := sim.ParsePolicy(sc.Policy); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if _, err := device.ByName(sc.Device); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(sc.Apps) == 0 {
		return nil, fmt.Errorf("scenario: no apps listed")
	}
	seen := map[int]bool{}
	for _, a := range sc.Apps {
		if a.UID <= 0 {
			return nil, fmt.Errorf("scenario: app %q needs a positive uid", a.Name)
		}
		if seen[a.UID] {
			return nil, fmt.Errorf("scenario: duplicate uid %d", a.UID)
		}
		seen[a.UID] = true
		if _, err := buildApp(nil, a); err != nil {
			return nil, err
		}
	}
	for i, step := range sc.Env {
		if _, err := time.ParseDuration(step.At); err != nil {
			return nil, fmt.Errorf("scenario: env[%d].at: %w", i, err)
		}
		if err := validateStep(step); err != nil {
			return nil, fmt.Errorf("scenario: env[%d]: %w", i, err)
		}
	}
	return &sc, nil
}

func (sc *Scenario) runLength() (time.Duration, error) {
	d, err := time.ParseDuration(sc.Duration)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("scenario: bad duration %q", sc.Duration)
	}
	return d, nil
}

func validateStep(step EnvStep) error {
	switch step.Network {
	case "", "wifi", "cellular", "down":
	default:
		return fmt.Errorf("unknown network %q", step.Network)
	}
	switch step.Server {
	case "", "ok", "bad":
	default:
		return fmt.Errorf("unknown server %q", step.Server)
	}
	switch step.GPS {
	case "", "good", "weak", "none":
	default:
		return fmt.Errorf("unknown gps %q", step.GPS)
	}
	switch step.User {
	case "", "present", "away":
	default:
		return fmt.Errorf("unknown user %q", step.User)
	}
	return nil
}

// buildApp resolves an app entry. With a nil sim it only validates the name.
func buildApp(s *sim.Sim, entry AppEntry) (apps.App, error) {
	uid := power.UID(entry.UID)
	switch entry.Name {
	case "runkeeper":
		if s == nil {
			return nil, nil
		}
		return apps.NewRunKeeper(s, uid), nil
	case "spotify":
		if s == nil {
			return nil, nil
		}
		return apps.NewSpotify(s, uid), nil
	case "haven":
		if s == nil {
			return nil, nil
		}
		return apps.NewHaven(s, uid), nil
	case "K-9 (fixed)":
		if s == nil {
			return nil, nil
		}
		return apps.NewFixedK9(s, uid), nil
	case "Kontalk (fixed)":
		if s == nil {
			return nil, nil
		}
		return apps.NewFixedKontalk(s, uid), nil
	case "BetterWeather (fixed)":
		if s == nil {
			return nil, nil
		}
		return apps.NewFixedBetterWeather(s, uid), nil
	default:
		sp, err := apps.SpecByName(entry.Name)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if s == nil {
			return nil, nil
		}
		return sp.New(s, uid), nil
	}
}

// AppResult is one app's outcome.
type AppResult struct {
	Name    string
	UID     power.UID
	EnergyJ float64
	AvgMW   float64
}

// Result is a completed scenario run.
type Result struct {
	Sim      *sim.Sim
	Duration time.Duration
	Apps     []AppResult
}

// Run builds the simulation, installs the apps, applies the environment
// timeline, and runs to the configured horizon. Note that scenario files do
// not apply Table 5 trigger conditions automatically — the env timeline is
// the single source of environmental truth.
func (sc *Scenario) Run() (*Result, error) {
	d, err := sc.runLength()
	if err != nil {
		return nil, err
	}
	pol, err := sim.ParsePolicy(sc.Policy)
	if err != nil {
		return nil, err
	}
	prof, err := device.ByName(sc.Device)
	if err != nil {
		return nil, err
	}
	s := sim.New(sim.Options{Policy: pol, Device: prof})

	installed := make([]apps.App, 0, len(sc.Apps))
	for _, entry := range sc.Apps {
		app, err := buildApp(s, entry)
		if err != nil {
			return nil, err
		}
		installed = append(installed, app)
	}

	for _, step := range sc.Env {
		at, _ := time.ParseDuration(step.At)
		step := step
		s.Engine.ScheduleAt(at, func() { applyStep(s, step) })
	}
	for _, app := range installed {
		app.Start()
	}
	s.Run(d)

	res := &Result{Sim: s, Duration: d}
	for i, entry := range sc.Apps {
		uid := power.UID(entry.UID)
		e := s.Meter.EnergyOfJ(uid)
		res.Apps = append(res.Apps, AppResult{
			Name: installed[i].Name(), UID: uid,
			EnergyJ: e, AvgMW: power.AvgPowerMW(e, d),
		})
	}
	return res, nil
}

func applyStep(s *sim.Sim, step EnvStep) {
	switch step.Network {
	case "wifi":
		s.World.SetNetwork(true, true)
	case "cellular":
		s.World.SetNetwork(true, false)
	case "down":
		s.World.SetNetwork(false, false)
	}
	switch step.Server {
	case "ok":
		s.World.SetServerHealthy(true)
	case "bad":
		s.World.SetServerHealthy(false)
	}
	switch step.GPS {
	case "good":
		s.World.SetGPS(env.GPSGood)
	case "weak":
		s.World.SetGPS(env.GPSWeak)
	case "none":
		s.World.SetGPS(env.GPSNone)
	}
	if step.MotionMps != nil {
		if *step.MotionMps > 0 {
			s.World.SetMotion(true, *step.MotionMps)
		} else {
			s.World.SetMotion(false, 0)
		}
	}
	switch step.User {
	case "present":
		s.World.SetUserPresent(true)
		s.Power.SetUserScreen(true)
	case "away":
		s.World.SetUserPresent(false)
		s.Power.SetUserScreen(false)
	}
}
