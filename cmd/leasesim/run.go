package main

// leasesim run runs one app, or a JSON scenario file (scenario.go), on the
// simulated device and reports energy, lease activity, and app-visible
// outcomes:
//
//	leasesim run -app Torch -policy leaseos -duration 30m
//	leasesim run -app K-9 -policy vanilla -device "Motorola G"
//	leasesim run -list

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
)

func runFlags(fs *flag.FlagSet) func(io.Writer) error {
	appName := fs.String("app", "Torch", "Table 5 app name, or runkeeper|spotify|haven, or K-9|Kontalk|BetterWeather (fixed)")
	policyS := fs.String("policy", "leaseos", "vanilla|leaseos|doze|doze-aggressive|defdroid|throttle")
	duration := fs.Duration("duration", 30*time.Minute, "virtual run length")
	deviceS := fs.String("device", device.PixelXL.Name, "device profile name")
	scenarioF := fs.String("scenario", "", "run a JSON scenario file instead of -app")
	traceJSON := fs.String("trace", "", "write a JSON-lines event trace to this file")
	traceCSV := fs.String("trace-csv", "", "write a CSV power matrix to this file")
	explain := fs.Bool("explain", false, "print the lease manager's decision explanation per lease")
	list := fs.Bool("list", false, "list available apps and devices")
	return func(w io.Writer) error {
		switch {
		case *list:
			printList(w)
			return nil
		case *scenarioF != "":
			var other string
			fs.Visit(func(f *flag.Flag) {
				if f.Name != "scenario" && other == "" {
					other = f.Name
				}
			})
			if other != "" {
				return fmt.Errorf("-%s does not apply to a -scenario run: the file sets its apps, policy, device and duration", other)
			}
			return runScenario(w, *scenarioF)
		case *duration <= 0:
			return fmt.Errorf("-duration must be positive, got %v", *duration)
		}
		policy, err := sim.ParsePolicy(*policyS)
		if err != nil {
			return err
		}
		prof, err := device.ByName(*deviceS)
		if err != nil {
			return err
		}
		named, err := lookupApp(*appName)
		if err != nil {
			return err
		}
		return runApp(w, sim.New(sim.Options{Policy: policy, Device: prof}), named, *duration, *traceJSON, *traceCSV, *explain)
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "Table 5 apps:")
	for _, sp := range apps.Table5Specs() {
		fmt.Fprintf(w, "  %-20s %-12s %-8s %s\n", sp.Name, sp.Category, sp.Resource, sp.Behavior)
	}
	fmt.Fprintf(w, "other apps: %s\n", strings.Join(extraAppNames(), ", "))
	fmt.Fprintln(w, "devices:")
	for _, p := range device.All {
		fmt.Fprintf(w, "  %s\n", p.Name)
	}
}

// namedApp is how a run builds an app it knows by name.
type namedApp struct {
	// trigger arranges the environment that exposes the app's behaviour
	// when the app runs alone under -app; a scenario's env timeline is the
	// only environment it applies.
	trigger func(*env.Environment)
	// build installs the app on s under uid, with an optional report of
	// the app's own outcome.
	build func(s *sim.Sim, uid power.UID) (apps.App, func(io.Writer))
}

// extraApps are the apps, besides Table 5's, that a run knows by name.
var extraApps = map[string]namedApp{
	"runkeeper": {
		trigger: func(w *env.Environment) { w.SetMotion(true, 2.5) },
		build: func(s *sim.Sim, uid power.UID) (apps.App, func(io.Writer)) {
			a := apps.NewRunKeeper(s, uid)
			return a, func(w io.Writer) { fmt.Fprintf(w, "tracking : %d track points\n", a.TrackPoints) }
		},
	},
	"spotify": {build: func(s *sim.Sim, uid power.UID) (apps.App, func(io.Writer)) {
		a := apps.NewSpotify(s, uid)
		return a, func(w io.Writer) { fmt.Fprintf(w, "playback : %d seconds played\n", a.SecondsPlayed) }
	}},
	"haven": {build: func(s *sim.Sim, uid power.UID) (apps.App, func(io.Writer)) {
		a := apps.NewHaven(s, uid)
		return a, func(w io.Writer) { fmt.Fprintf(w, "monitor  : %d events analyzed\n", a.EventsAnalyzed) }
	}},
	"K-9 (fixed)":           {build: plain(apps.NewFixedK9)},
	"Kontalk (fixed)":       {build: plain(apps.NewFixedKontalk)},
	"BetterWeather (fixed)": {build: plain(apps.NewFixedBetterWeather)},
}

// extraAppNames are extraApps' names in sorted order.
func extraAppNames() []string {
	names := make([]string, 0, len(extraApps))
	for name := range extraApps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func plain[A apps.App](build func(*sim.Sim, power.UID) A) func(*sim.Sim, power.UID) (apps.App, func(io.Writer)) {
	return func(s *sim.Sim, uid power.UID) (apps.App, func(io.Writer)) { return build(s, uid), nil }
}

// lookupApp resolves an app name: one of extraApps, or a Table 5 app with
// its defect's trigger.
func lookupApp(name string) (namedApp, error) {
	if a, ok := extraApps[name]; ok {
		return a, nil
	}
	sp, err := apps.SpecByName(name)
	if err != nil {
		return namedApp{}, err
	}
	return namedApp{trigger: sp.Trigger, build: plain(sp.New)}, nil
}

// runApp runs one app on s for d and prints its report; traceJSON and
// traceCSV, when set, name the files the run's event trace goes to.
func runApp(w io.Writer, s *sim.Sim, named namedApp, d time.Duration, traceJSON, traceCSV string, explain bool) error {
	const uid power.UID = 100
	if named.trigger != nil {
		named.trigger(s.World)
	}
	app, report := named.build(s, uid)
	var rec *recorder
	if traceJSON != "" || traceCSV != "" {
		rec = attachRecorder(s, time.Second, uid)
	}
	// One sink keeps what this report reads: each lease's behaviour counts,
	// each transition's event line — a deferral's after the line of the term
	// check that decided it — and the trace's events.
	counts := map[uint64][lease.EUB + 1]int{}
	var txns [][]byte
	var check lease.Event
	if s.Leases != nil {
		s.Leases.OnEvent = func(ev lease.Event) {
			switch ev.Op {
			case lease.EventTermCheck:
				c := counts[ev.Lease]
				c[ev.Term.Behavior]++
				counts[ev.Lease] = c
				check = ev
			case lease.EventTransition:
				var lines []byte
				if ev.To == lease.Deferred {
					lines = fmt.Appendf(lines, "  %s\n", lease.AppendEventLine(nil, check))
				}
				txns = append(txns, fmt.Appendf(lines, "  %s\n", lease.AppendEventLine(nil, ev)))
			}
			rec.Note(ev)
		}
	}
	app.Start()
	s.Run(d)
	if rec != nil {
		rec.Stop()
		if err := writeTrace(w, rec, traceJSON, traceCSV); err != nil {
			return err
		}
	}

	energy := s.Meter.EnergyOfJ(uid)
	fmt.Fprintf(w, "app      : %s on %s under %s for %v\n", app.Name(), s.Profile.Name, s.Policy, d)
	fmt.Fprintf(w, "energy   : %.1f J (avg %.2f mW)\n", energy, power.AvgPowerMW(energy, d))
	if by := s.Meter.EnergyByComponentJ(); len(by) > 0 {
		fmt.Fprintf(w, "breakdown:")
		for _, c := range []power.Component{power.CPU, power.Screen, power.GPS, power.Sensor, power.WiFi, power.Audio, power.Radio, power.System} {
			if j, ok := by[c]; ok {
				fmt.Fprintf(w, " %v=%.1fJ", c, j)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "cpu time : %v, exceptions: %d, ui updates: %d\n",
		s.Apps.CPUTimeOf(uid).Truncate(time.Millisecond), s.Apps.ExceptionsOf(uid), s.Apps.UIUpdatesOf(uid))
	if report != nil {
		report(w)
	}

	if s.Leases != nil {
		fmt.Fprintf(w, "leases   : %d created, %d live\n", s.Leases.CreatedTotal(), s.Leases.LeaseCount())
		for _, l := range s.Leases.Leases() {
			c := counts[l.ID()]
			fmt.Fprintf(w, "  lease %d (%v): state %v, %d terms — normal %d, FAB %d, LHB %d, LUB %d, EUB %d\n",
				l.ID(), l.Kind(), l.State(), l.Terms(),
				c[lease.Normal], c[lease.FAB], c[lease.LHB], c[lease.LUB], c[lease.EUB])
		}
		if n := len(txns); n > 0 {
			fmt.Fprintf(w, "transitions (%d):\n", n)
			limit := min(n, 12)
			for _, tr := range txns[:limit] {
				w.Write(tr)
			}
			if limit < n {
				fmt.Fprintf(w, "  ... %d more\n", n-limit)
			}
		}
		if explain {
			fmt.Fprintln(w, "explanations:")
			for _, l := range s.Leases.Leases() {
				fmt.Fprint(w, s.Leases.Explain(l.ID()))
			}
		}
	}
	if s.DefDroidGov != nil {
		fmt.Fprintf(w, "defdroid : %d revocations\n", s.DefDroidGov.Revocations)
	}
	if s.ThrottleGov != nil {
		fmt.Fprintf(w, "throttle : %d revocations\n", s.ThrottleGov.Revocations)
	}
	if s.Doze != nil {
		fmt.Fprintf(w, "doze     : entered %d times, dozing now: %v\n", s.Doze.DozeEnterCount, s.Doze.Dozing())
	}
	return nil
}

// runScenario executes a JSON scenario file and prints per-app outcomes.
func runScenario(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := parseScenario(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	s, installed := sc.run()
	fmt.Fprintf(w, "scenario : %s on %s under %s for %s\n", path, sc.Device, sc.Policy, sc.Duration)
	fmt.Fprintf(w, "%-24s %-6s %12s %12s\n", "app", "uid", "energy (J)", "avg (mW)")
	for i, app := range installed {
		uid := power.UID(sc.Apps[i].UID)
		e := s.Meter.EnergyOfJ(uid)
		fmt.Fprintf(w, "%-24s %-6d %12.1f %12.2f\n", app.Name(), uid, e, power.AvgPowerMW(e, sc.length))
	}
	if s.Leases != nil {
		fmt.Fprintf(w, "leases   : %d created; deferrals: %d\n", s.Leases.CreatedTotal(), s.Leases.Deferrals)
	}
	return nil
}

// writeTrace dumps the recorded trace to the requested files.
func writeTrace(w io.Writer, rec *recorder, jsonPath, csvPath string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{jsonPath, rec.WriteJSON}, {csvPath, rec.WriteCSV}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		err = out.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trace    : wrote %s\n", out.path)
	}
	return nil
}
