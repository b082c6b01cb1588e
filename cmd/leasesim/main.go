// Command leasesim runs one app scenario on the simulated device and
// reports energy, lease activity, and app-visible outcomes.
//
// Usage:
//
//	leasesim -app Torch -policy leaseos -duration 30m
//	leasesim -app K-9 -policy vanilla -device "Motorola G"
//	leasesim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	leaseos "repro"
	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		appName   = flag.String("app", "Torch", "Table 5 app name, or runkeeper|spotify|haven")
		policyS   = flag.String("policy", "leaseos", "vanilla|leaseos|doze|doze-aggressive|defdroid|throttle")
		duration  = flag.Duration("duration", 30*time.Minute, "virtual run length")
		deviceS   = flag.String("device", device.PixelXL.Name, "device profile name")
		scenarioF = flag.String("scenario", "", "run a JSON scenario file instead of -app")
		traceJSON = flag.String("trace", "", "write a JSON-lines event trace to this file")
		traceCSV  = flag.String("trace-csv", "", "write a CSV power matrix to this file")
		explain   = flag.Bool("explain", false, "print the lease manager's decision explanation per lease")
		list      = flag.Bool("list", false, "list available apps and devices")
	)
	flag.Parse()

	if *list {
		fmt.Println("Table 5 apps:")
		for _, sp := range apps.Table5Specs() {
			fmt.Printf("  %-20s %-12s %-8s %s\n", sp.Name, sp.Category, sp.Resource, sp.Behavior)
		}
		fmt.Println("normal apps: runkeeper, spotify, haven")
		fmt.Println("devices:")
		for _, p := range device.All {
			fmt.Printf("  %s\n", p.Name)
		}
		return
	}

	if *scenarioF != "" {
		runScenario(*scenarioF)
		return
	}

	policy, err := leaseos.ParsePolicy(*policyS)
	if err != nil {
		fatal(err)
	}
	prof, err := device.ByName(*deviceS)
	if err != nil {
		fatal(err)
	}

	s := leaseos.New(leaseos.Options{Policy: policy, Device: prof})

	const uid power.UID = 100
	app, extra := buildApp(s, *appName, uid)
	var rec *trace.Recorder
	if *traceJSON != "" || *traceCSV != "" {
		rec = trace.Attach(s, time.Second, uid)
	}
	// One sink keeps what this report reads: each lease's behaviour counts,
	// the transitions, and the trace's transition events.
	counts := map[uint64][lease.EUB + 1]int{}
	var txns []lease.Event
	if s.Leases != nil {
		s.Leases.OnEvent = func(ev lease.Event) {
			switch ev.Op {
			case lease.EventTermCheck:
				c := counts[ev.Lease]
				c[ev.Term.Behavior]++
				counts[ev.Lease] = c
			case lease.EventTransition:
				txns = append(txns, ev)
			}
			rec.Note(ev)
		}
	}
	app.Start()
	s.Run(*duration)
	if rec != nil {
		rec.Stop()
		writeTrace(rec, *traceJSON, *traceCSV)
	}

	energy := s.Meter.EnergyOfJ(uid)
	fmt.Printf("app      : %s on %s under %s for %v\n", app.Name(), prof.Name, policy, *duration)
	fmt.Printf("energy   : %.1f J (avg %.2f mW)\n", energy, power.AvgPowerMW(energy, *duration))
	if by := s.Meter.EnergyByComponentJ(); len(by) > 0 {
		fmt.Printf("breakdown:")
		for _, c := range []power.Component{power.CPU, power.Screen, power.GPS, power.Sensor, power.WiFi, power.Audio, power.Radio, power.System} {
			if j, ok := by[c]; ok {
				fmt.Printf(" %v=%.1fJ", c, j)
			}
		}
		fmt.Println()
	}
	fmt.Printf("cpu time : %v, exceptions: %d, ui updates: %d\n",
		s.Apps.CPUTimeOf(uid).Truncate(time.Millisecond), s.Apps.ExceptionsOf(uid), s.Apps.UIUpdatesOf(uid))
	if extra != nil {
		extra()
	}

	if s.Leases != nil {
		fmt.Printf("leases   : %d created, %d live\n", s.Leases.CreatedTotal(), s.Leases.LeaseCount())
		for _, l := range s.Leases.Leases() {
			c := counts[l.ID()]
			fmt.Printf("  lease %d (%v): state %v, %d terms — normal %d, FAB %d, LHB %d, LUB %d, EUB %d\n",
				l.ID(), l.Kind(), l.State(), l.Terms(),
				c[lease.Normal], c[lease.FAB], c[lease.LHB], c[lease.LUB], c[lease.EUB])
		}
		if n := len(txns); n > 0 {
			fmt.Printf("transitions (%d):\n", n)
			limit := min(n, 12)
			for _, tr := range txns[:limit] {
				fmt.Printf("  %8v  %v -> %v (%s)\n", tr.At.Truncate(time.Second), tr.From, tr.To, tr.Reason)
			}
			if limit < n {
				fmt.Printf("  ... %d more\n", n-limit)
			}
		}
	}
	if *explain && s.Leases != nil {
		fmt.Println("explanations:")
		for _, l := range s.Leases.Leases() {
			fmt.Print(s.Leases.Explain(l.ID()))
		}
	}
	if s.DefDroidGov != nil {
		fmt.Printf("defdroid : %d revocations\n", s.DefDroidGov.Revocations)
	}
	if s.ThrottleGov != nil {
		fmt.Printf("throttle : %d revocations\n", s.ThrottleGov.Revocations)
	}
	if s.Doze != nil {
		fmt.Printf("doze     : entered %d times, dozing now: %v\n", s.Doze.DozeEnterCount, s.Doze.Dozing())
	}
}

// runScenario executes a JSON scenario file and prints per-app outcomes.
func runScenario(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sc, err := scenario.Parse(f)
	if err != nil {
		fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scenario : %s on %s under %s for %s\n", path, sc.Device, sc.Policy, sc.Duration)
	fmt.Printf("%-24s %-6s %12s %12s\n", "app", "uid", "energy (J)", "avg (mW)")
	for _, a := range res.Apps {
		fmt.Printf("%-24s %-6d %12.1f %12.2f\n", a.Name, a.UID, a.EnergyJ, a.AvgMW)
	}
	if res.Sim.Leases != nil {
		fmt.Printf("leases   : %d created; deferrals: %d\n",
			res.Sim.Leases.CreatedTotal(), res.Sim.Leases.Deferrals)
	}
}

// buildApp constructs the requested app model and returns an optional
// extra-report function for app-specific metrics.
func buildApp(s *sim.Sim, name string, uid power.UID) (apps.App, func()) {
	switch name {
	case "runkeeper":
		s.World.SetMotion(true, 2.5)
		a := apps.NewRunKeeper(s, uid)
		return a, func() { fmt.Printf("tracking : %d track points\n", a.TrackPoints) }
	case "spotify":
		a := apps.NewSpotify(s, uid)
		return a, func() { fmt.Printf("playback : %d seconds played\n", a.SecondsPlayed) }
	case "haven":
		a := apps.NewHaven(s, uid)
		return a, func() { fmt.Printf("monitor  : %d events analyzed\n", a.EventsAnalyzed) }
	default:
		sp, err := apps.SpecByName(name)
		if err != nil {
			fatal(err)
		}
		sp.Trigger(s.World)
		return sp.New(s, uid), nil
	}
}

// writeTrace dumps the recorded trace to the requested files.
func writeTrace(rec *trace.Recorder, jsonPath, csvPath string) {
	write := func(path string, fn func(w *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace    : wrote %s\n", path)
	}
	write(jsonPath, func(w *os.File) error { return rec.WriteJSON(w) })
	write(csvPath, func(w *os.File) error { return rec.WriteCSV(w) })
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leasesim:", err)
	os.Exit(1)
}
