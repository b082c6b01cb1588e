package exp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/lease"
	"repro/internal/sim"
	"repro/internal/study"
)

// Figure1 reproduces "BetterWeather's GPS try duration every 60s": the
// buggy widget on a lightly-used phone in a building with weak GPS signal,
// profiled for ~55 minutes. Expect every minute to show tens of seconds of
// failed GPS asking and zero successful fixes.
func Figure1() Result {
	r := Result{ID: "figure-1", Title: "BetterWeather GPS try duration per minute (weak signal, Nexus)"}
	s := borrowSim(sim.Options{Policy: sim.Vanilla, Device: device.Nexus6})
	defer returnSim(s)
	s.World.SetGPS(env.GPSWeak)
	bw := apps.NewBetterWeather(s, 100)
	bw.Start()
	p := newMinuteProfiler(s, 100, s.Location, bw.GPSObjectID, time.Minute)
	s.Run(55 * time.Minute)
	p.Stop()

	r.addf("%-8s %-18s", "minute", "GPS try duration (s)")
	total := 0.0
	for i, failed := range p.Failed {
		r.addf("%-8d %s", i+1, fmtSecs(failed))
		total += failed.Seconds()
	}
	avg := total / float64(len(p.Failed))
	r.addf("mean try duration: %.1f s/min (paper: ~60%% of each interval asking, never locking)", avg)
	r.addf("successful weather updates: %d (paper: the app never gets the GPS information)", bw.GotWeather)
	return r
}

// Figure2 reproduces "Wakelock holding time and CPU usage of buggy K-9 mail
// in a connected environment with a bad mail server" on the Motorola G:
// long per-minute wakelock holding with near-zero CPU usage.
func Figure2() Result {
	r := Result{ID: "figure-2", Title: "K-9 wakelock holding vs CPU per minute (bad server, Moto G)"}
	s := borrowSim(sim.Options{Policy: sim.Vanilla, Device: device.MotoG})
	defer returnSim(s)
	s.World.SetServerHealthy(false)
	k9 := apps.NewK9(s, 100)
	k9.Start()
	p := newMinuteProfiler(s, 100, s.Power, k9.WakelockID, time.Minute)
	s.Run(55 * time.Minute)
	p.Stop()

	r.addf("%-8s %-22s %-14s", "minute", "wakelock holding (s)", "CPU usage (s)")
	var holdSum, cpuSum float64
	for i := range p.Held {
		r.addf("%-8d %s                  %s", i+1, fmtSecs(p.Held[i]), fmtSecs(p.CPU[i]))
		holdSum += p.Held[i].Seconds()
		cpuSum += p.CPU[i].Seconds()
	}
	util := cpuSum / holdSum
	r.addf("utilization ratio: %.3f (paper: ultralow, < 1%%..5%%)", util)
	return r
}

// Figure3 reproduces the Kontalk measurements on two phones: wakelock
// holding time pinned at the full minute with a CPU/WL ratio near zero on
// both, despite the ~2x hardware difference.
func Figure3() Result {
	r := Result{ID: "figure-3", Title: "Kontalk wakelock holding + CPU/WL ratio (Nexus vs Samsung)"}
	profiles := []device.Profile{device.Nexus6, device.GalaxyS4}
	lines := fanOut(profiles, func(_ int, prof device.Profile) string {
		s := borrowSim(sim.Options{Policy: sim.Vanilla, Device: prof})
		defer returnSim(s)
		app := apps.NewKontalk(s, 100)
		app.Start()
		p := newMinuteProfiler(s, 100, s.Power, app.WakelockID, time.Minute)
		s.Run(55 * time.Minute)
		p.Stop()

		var holdSum, cpuSum float64
		for i := range p.Held {
			holdSum += p.Held[i].Seconds()
			cpuSum += p.CPU[i].Seconds()
		}
		return fmt.Sprintf("%s: mean holding %.1f s/min, CPU/WL ratio %.4f",
			prof.Name, holdSum/float64(len(p.Held)), cpuSum/holdSum)
	})
	r.Lines = append(r.Lines, lines...)
	r.addf("paper: the ultralow utilization pattern is consistent across phones and ecosystems")
	return r
}

// Figure4 reproduces "buggy K-9 mail in a network-disconnected environment"
// on the Pixel XL: wakelock holding is still pinned, but now the CPU spins —
// high utilisation doing useless exception-handling work.
func Figure4() Result {
	r := Result{ID: "figure-4", Title: "K-9 wakelock holding vs CPU per minute (disconnected, Pixel XL)"}
	s := borrowSim(sim.Options{Policy: sim.Vanilla, Device: device.PixelXL})
	defer returnSim(s)
	s.World.SetNetwork(false, false)
	k9 := apps.NewK9(s, 100)
	k9.Start()
	p := newMinuteProfiler(s, 100, s.Power, k9.WakelockID, time.Minute)
	s.Run(10 * time.Minute)
	p.Stop()

	r.addf("%-8s %-22s %-14s", "minute", "wakelock holding (s)", "CPU usage (s)")
	var holdSum, cpuSum float64
	for i := range p.Held {
		r.addf("%-8d %s                  %s", i+1, fmtSecs(p.Held[i]), fmtSecs(p.CPU[i]))
		holdSum += p.Held[i].Seconds()
		cpuSum += p.CPU[i].Seconds()
	}
	r.addf("utilization ratio: %.2f (paper: high — the loop is busy but makes no progress)", cpuSum/holdSum)
	r.addf("exceptions thrown: %d (the Low-Utility signal)", s.Apps.ExceptionsOf(100))
	return r
}

// Table1 reproduces the behaviour-type applicability matrix.
func Table1() Result {
	r := Result{ID: "table-1", Title: "Four types of energy misbehavior per resource"}
	r.addf("%-22s %-5s %-5s %-5s %-5s %-7s", "Resource", "FAB", "LHB", "LUB", "EUB", "Normal")
	rows := []struct {
		label string
		kind  hooks.Kind
		star  bool // the LHB listener-semantic footnote
	}{
		{"CPU (wakelock)", hooks.Wakelock, false},
		{"Screen", hooks.ScreenWakelock, false},
		{"Wi-Fi radio", hooks.WifiLock, false},
		{"Audio", hooks.AudioSession, false},
		{"GPS", hooks.GPSListener, true},
		{"Sensors", hooks.SensorListener, true},
	}
	mark := func(ok bool, star bool) string {
		switch {
		case !ok:
			return "x"
		case star:
			return "v*"
		default:
			return "v"
		}
	}
	for _, row := range rows {
		r.addf("%-22s %-5s %-5s %-5s %-5s %-7s",
			row.label,
			mark(lease.CanOccur(lease.FAB, row.kind), false),
			mark(lease.CanOccur(lease.LHB, row.kind), row.star),
			mark(lease.CanOccur(lease.LUB, row.kind), false),
			mark(lease.CanOccur(lease.EUB, row.kind), false),
			mark(true, false))
	}
	r.notef("v* = possible with a listener-specific semantic (bound-activity lifetime)")
	return r
}

// Table2 reproduces the 109-case prevalence study.
func Table2() Result {
	r := Result{ID: "table-2", Title: "Prevalence of each misbehavior type (109 cases)"}
	r.addf("%-6s %-5s %-8s %-9s %-5s %-6s %-5s", "Type", "Bug", "Config.", "Enhance.", "N/A", "Total", "Pct.")
	for _, row := range study.Table2() {
		name := row.Behavior.String()
		if row.Behavior == study.BehaviorNA {
			name = "N/A"
		}
		r.addf("%-6s %-5d %-8d %-9d %-5d %-6d %.0f%%",
			name, row.Bug, row.Config, row.Enhance, row.NA, row.Total, row.Percent)
	}
	f := study.ComputeFindings()
	r.addf("finding 1: FAB+LHB+LUB = %.0f%% of cases, EUB = %.0f%%", f.DefectShare, f.EUBShare)
	r.addf("finding 2: %.0f%% of FAB/LHB/LUB are bugs; %.0f%% of EUB are non-bug trade-offs",
		f.DefectBugShare, f.EUBNonBugShare)
	return r
}

// Figure5 exercises the lease state machine end to end and prints the
// observed transition set, which must be a subset of the paper's Figure 5
// edges.
func Figure5() Result {
	r := Result{ID: "figure-5", Title: "Lease state transitions (observed)"}
	s := borrowSim(sim.Options{Policy: sim.LeaseOS, Lease: lease.Config{NoTauEscalation: true}})
	defer returnSim(s)
	seen := map[string]int{}
	s.Leases.OnEvent = func(ev lease.Event) {
		if ev.Op == lease.EventTransition {
			seen[fmt.Sprintf("%v -> %v", ev.From, ev.To)]++
		}
	}
	// Drive one lease through every state: misbehave (idle hold), recover
	// (healthy work), release, re-acquire, die.
	wl := s.Power.NewWakelock(100, hooks.Wakelock, "fsm")
	proc := s.Apps.NewProcess(100)
	wl.Acquire()
	s.Run(31 * time.Second) // LHB at 5 s → DEFERRED for τ=25 s → restored at 30 s
	stop := proc.Every(time.Second, func() { proc.RunWork(500*time.Millisecond, nil) })
	s.Run(26 * time.Second) // healthy terms at 36..55 s renew the lease
	stop()
	wl.Release()           // at 57 s
	s.Run(5 * time.Second) // term end at 61 s with the lock released → INACTIVE
	wl.Acquire()           // → ACTIVE (renewal check on re-acquire)
	s.Run(time.Second)
	wl.Destroy() // → DEAD

	edges := make([]string, 0, len(seen))
	for edge := range seen {
		edges = append(edges, edge)
	}
	sort.Strings(edges)
	for _, edge := range edges {
		r.addf("%-24s x%d", edge, seen[edge])
	}
	r.addf("edges observed: %d (paper Figure 5 edges: ACTIVE->DEFERRED, DEFERRED->ACTIVE, ACTIVE->INACTIVE, INACTIVE->ACTIVE, *->DEAD)", len(seen))
	return r
}
