// Package apps models the applications the paper evaluates: the 20
// real-world buggy apps of Table 5, the case-study apps of §2, the normal
// background apps of the §7.4 usability comparison, and synthetic apps for
// the policy-sensitivity and overhead experiments.
//
// Each model reproduces the app's published defect at the level of the
// resource-usage events the OS observes: which resources it acquires, when
// it releases them, what work it does, and what value (UI updates,
// interactions, movement, data) that work produces. The defects trigger
// only under the documented environment conditions (bad server, no network,
// weak GPS, and so on), which the per-app Spec encodes.
package apps

import (
	"fmt"

	"repro/internal/android/appfw"
	"repro/internal/android/hooks"
	"repro/internal/env"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
)

// App is a runnable application model.
type App interface {
	// Name is the app's display name.
	Name() string
	// Start launches the app's behaviour.
	Start()
}

// base carries the plumbing every app model shares.
type base struct {
	s    *sim.Sim
	proc *appfw.Process
	name string
}

func newBase(s *sim.Sim, uid power.UID, name string) base {
	return base{s: s, proc: s.Apps.NewProcess(uid), name: name}
}

func (b *base) Name() string   { return b.name }
func (b *base) UID() power.UID { return b.proc.UID() }

// Spec describes one evaluated app: its Table 5 row plus how to trigger the
// defect and construct the model.
type Spec struct {
	// Name and Category as given in Table 5.
	Name     string
	Category string
	// Resource is the misused resource and Behavior the misbehaviour class
	// from Table 5.
	Resource hooks.Kind
	Behavior lease.Behavior
	// PaperMW are the paper's measured milliwatt numbers for the row:
	// vanilla, LeaseOS, aggressive Doze, DefDroid. They are reference
	// points for EXPERIMENTS.md, not targets our simulator must hit.
	PaperMW [4]float64
	// Trigger arranges the environment condition that exposes the defect.
	Trigger func(w *env.Environment)
	// New constructs the model.
	New func(s *sim.Sim, uid power.UID) App
}

// Table5Specs returns the 20 buggy-app rows of paper Table 5, in order.
func Table5Specs() []Spec {
	benign := func(*env.Environment) {}
	noWiFi := func(w *env.Environment) { w.SetNetwork(true, false) }
	noNet := func(w *env.Environment) { w.SetNetwork(false, false) }
	weakGPS := func(w *env.Environment) { w.SetGPS(env.GPSWeak) }
	return []Spec{
		{Name: "Facebook", Category: "social", Resource: hooks.Wakelock, Behavior: lease.LHB,
			PaperMW: [4]float64{100.62, 1.93, 18.92, 12.68}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewFacebook(s, uid) }},
		{Name: "Torch", Category: "tool", Resource: hooks.Wakelock, Behavior: lease.LHB,
			PaperMW: [4]float64{81.54, 1.30, 19.26, 14.39}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewTorch(s, uid) }},
		{Name: "Kontalk", Category: "messaging", Resource: hooks.Wakelock, Behavior: lease.LHB,
			PaperMW: [4]float64{29.41, 0.39, 16.84, 15.99}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewKontalk(s, uid) }},
		{Name: "K-9", Category: "mail", Resource: hooks.Wakelock, Behavior: lease.LUB,
			PaperMW: [4]float64{890.35, 81.62, 195.2, 136.14}, Trigger: noNet,
			New: func(s *sim.Sim, uid power.UID) App { return NewK9(s, uid) }},
		{Name: "ServalMesh", Category: "tool", Resource: hooks.Wakelock, Behavior: lease.LUB,
			PaperMW: [4]float64{134.27, 1.37, 30.54, 14.88}, Trigger: noWiFi,
			New: func(s *sim.Sim, uid power.UID) App { return NewServalMesh(s, uid) }},
		{Name: "TextSecure", Category: "messaging", Resource: hooks.Wakelock, Behavior: lease.LUB,
			PaperMW: [4]float64{81.62, 1.198, 18.78, 16.78}, Trigger: noNet,
			New: func(s *sim.Sim, uid power.UID) App { return NewTextSecure(s, uid) }},
		{Name: "ConnectBot", Category: "tool", Resource: hooks.ScreenWakelock, Behavior: lease.LHB,
			PaperMW: [4]float64{576.52, 23.23, 573.23, 115.56}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewConnectBotScreen(s, uid) }},
		{Name: "Standup Timer", Category: "productivity", Resource: hooks.ScreenWakelock, Behavior: lease.LHB,
			PaperMW: [4]float64{569.10, 13.26, 544.46, 61.82}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewStandupTimer(s, uid) }},
		{Name: "ConnectBot (Wi-Fi)", Category: "tool", Resource: hooks.WifiLock, Behavior: lease.LHB,
			PaperMW: [4]float64{17.08, 0.78, 3.21, 2.57}, Trigger: noWiFi,
			New: func(s *sim.Sim, uid power.UID) App { return NewConnectBotWifi(s, uid) }},
		{Name: "BetterWeather", Category: "widget", Resource: hooks.GPSListener, Behavior: lease.FAB,
			PaperMW: [4]float64{115.36, 2.59, 20.38, 39.97}, Trigger: weakGPS,
			New: func(s *sim.Sim, uid power.UID) App { return NewBetterWeather(s, uid) }},
		{Name: "WHERE", Category: "travel", Resource: hooks.GPSListener, Behavior: lease.FAB,
			PaperMW: [4]float64{126.28, 23.33, 20.42, 69.62}, Trigger: weakGPS,
			New: func(s *sim.Sim, uid power.UID) App { return NewWhere(s, uid) }},
		{Name: "MozStumbler", Category: "service", Resource: hooks.GPSListener, Behavior: lease.LHB,
			PaperMW: [4]float64{122.43, 67.53, 36.48, 62.7}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewMozStumbler(s, uid) }},
		{Name: "OSMTracker", Category: "navigation", Resource: hooks.GPSListener, Behavior: lease.LHB,
			PaperMW: [4]float64{121.51, 8.39, 20.52, 73.34}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewOSMTracker(s, uid) }},
		{Name: "GPSLogger", Category: "travel", Resource: hooks.GPSListener, Behavior: lease.LHB,
			PaperMW: [4]float64{118.25, 4.33, 21.98, 70.7}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewGPSLogger(s, uid) }},
		{Name: "BostonBusMap", Category: "travel", Resource: hooks.GPSListener, Behavior: lease.LHB,
			PaperMW: [4]float64{115.5, 3.97, 19.5, 71.09}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewBostonBusMap(s, uid) }},
		{Name: "AIMSICD", Category: "service", Resource: hooks.GPSListener, Behavior: lease.LUB,
			PaperMW: [4]float64{119.43, 4.50, 23.91, 73.31}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewAIMSICD(s, uid) }},
		{Name: "OpenScienceMap", Category: "navigation", Resource: hooks.GPSListener, Behavior: lease.LUB,
			PaperMW: [4]float64{123.97, 3.40, 19.91, 91.25}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewOpenScienceMap(s, uid) }},
		{Name: "OpenGPSTracker", Category: "travel", Resource: hooks.GPSListener, Behavior: lease.LUB,
			PaperMW: [4]float64{360.25, 1.32, 19.91, 237.41}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewOpenGPSTracker(s, uid) }},
		{Name: "TapAndTurn", Category: "tool", Resource: hooks.SensorListener, Behavior: lease.LUB,
			PaperMW: [4]float64{11.72, 1.87, 3.95, 4.41}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewTapAndTurn(s, uid) }},
		{Name: "Riot", Category: "messaging", Resource: hooks.SensorListener, Behavior: lease.LUB,
			PaperMW: [4]float64{19.17, 1.43, 6.64, 3.93}, Trigger: benign,
			New: func(s *sim.Sim, uid power.UID) App { return NewRiot(s, uid) }},
	}
}

// SpecByName looks up a Table 5 spec.
func SpecByName(name string) (Spec, error) {
	for _, sp := range Table5Specs() {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("apps: unknown Table 5 app %q", name)
}
