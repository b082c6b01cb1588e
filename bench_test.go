// Benchmarks: one target per paper table and figure (regenerating the
// artefact end to end), true micro benchmarks for the Table 4 lease
// operations, and ablation benches for the design choices DESIGN.md calls
// out. Custom metrics report the reproduced statistic alongside ns/op.
package leaseos_test

import (
	"runtime"
	"testing"
	"time"

	leaseos "repro"
	"repro/internal/android/hooks"
	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// runExperiment benches one artefact regeneration.
func runExperiment(b *testing.B, fn func() exp.Result) {
	b.Helper()
	var lines int
	for i := 0; i < b.N; i++ {
		r := fn()
		lines = len(r.Lines)
	}
	b.ReportMetric(float64(lines), "lines")
}

func BenchmarkFigure1(b *testing.B)  { runExperiment(b, exp.Figure1) }
func BenchmarkFigure2(b *testing.B)  { runExperiment(b, exp.Figure2) }
func BenchmarkFigure3(b *testing.B)  { runExperiment(b, exp.Figure3) }
func BenchmarkFigure4(b *testing.B)  { runExperiment(b, exp.Figure4) }
func BenchmarkTable1(b *testing.B)   { runExperiment(b, exp.Table1) }
func BenchmarkTable2(b *testing.B)   { runExperiment(b, exp.Table2) }
func BenchmarkFigure5(b *testing.B)  { runExperiment(b, exp.Figure5) }
func BenchmarkFigure9(b *testing.B)  { runExperiment(b, exp.Figure9) }
func BenchmarkTable4(b *testing.B)   { runExperiment(b, exp.Table4) }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, exp.Figure11) }
func BenchmarkTable5(b *testing.B)   { runExperiment(b, exp.Table5) }
func BenchmarkUsability(b *testing.B) {
	runExperiment(b, exp.Usability)
}
func BenchmarkFigure12(b *testing.B) { runExperiment(b, figure12) }
func BenchmarkFigure13(b *testing.B) {
	runExperiment(b, func() exp.Result { return exp.Figure13(2) })
}
func BenchmarkFigure14(b *testing.B) { runExperiment(b, exp.Figure14) }
func BenchmarkBatteryLife(b *testing.B) {
	runExperiment(b, exp.BatteryLife)
}

// --- Table 4 micro benchmarks: the real cost of each lease operation ---

func BenchmarkLeaseCreate(b *testing.B) {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Leases.Create(hooks.Object{ID: uint64(1000 + i), UID: 100, Kind: hooks.Wakelock, Control: s.Power})
	}
}

func BenchmarkLeaseCheckAccept(b *testing.B) {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	wl := s.Power.NewWakelock(100, hooks.Wakelock, "bench")
	wl.Acquire()
	id := s.Leases.Leases()[0].ID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Leases.Check(id)
	}
}

func BenchmarkLeaseCheckReject(b *testing.B) {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Leases.Check(0xdeadbeef)
	}
}

func BenchmarkLeaseUpdate(b *testing.B) {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	wl := s.Power.NewWakelock(100, hooks.Wakelock, "bench")
	wl.Acquire()
	id := s.Leases.Leases()[0].ID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Leases.ForceTermCheck(id)
	}
}

// --- harness fan-out: the sequential/parallel pair for the worker pool ---
//
// The same artefact regenerated at parallelism 1 (the reference path) and
// at GOMAXPROCS. On a 4+ core machine the parallel variant should be ≥ 2×
// faster in wall-clock ns/op while producing byte-identical output (see
// TestAllParallelDeterminism in internal/exp).

func benchParallelism(b *testing.B, workers int, fn func() exp.Result) {
	b.Helper()
	exp.SetParallelism(workers)
	defer exp.SetParallelism(0)
	runExperiment(b, fn)
}

func BenchmarkTable5Sequential(b *testing.B) { benchParallelism(b, 1, exp.Table5) }
func BenchmarkTable5Parallel(b *testing.B)   { benchParallelism(b, 0, exp.Table5) }

func BenchmarkFigure13Sequential(b *testing.B) {
	benchParallelism(b, 1, func() exp.Result { return exp.Figure13(4) })
}
func BenchmarkFigure13Parallel(b *testing.B) {
	benchParallelism(b, 0, func() exp.Result { return exp.Figure13(4) })
}

// BenchmarkEngineThroughput measures raw event-kernel throughput, the floor
// for every simulation in this repository.
func BenchmarkEngineThroughput(b *testing.B) {
	s := leaseos.New(leaseos.Options{})
	n := 0
	stop := s.Engine.Ticker(time.Millisecond, func() { n++ })
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(time.Millisecond)
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// torchReduction measures the Torch-leak energy reduction under a given
// lease config, reported as a custom metric.
func torchReduction(b *testing.B, cfg lease.Config) {
	b.Helper()
	reduction := 0.0
	for i := 0; i < b.N; i++ {
		run := func(pol sim.Policy) float64 {
			s := sim.New(sim.Options{Policy: pol, Lease: cfg})
			app := apps.NewTorch(s, 100)
			app.Start()
			s.Run(30 * time.Minute)
			return s.Meter.EnergyOfJ(100)
		}
		base := run(sim.Vanilla)
		withLease := run(sim.LeaseOS)
		reduction = 100 * (1 - withLease/base)
	}
	b.ReportMetric(reduction, "reduction%")
}

// BenchmarkAblationTauEscalation quantifies repeat-offender τ escalation:
// with it the steady leak collapses to ~98% reduction; without it the
// reduction caps near 1/(1+λ) ≈ 83%.
func BenchmarkAblationTauEscalation(b *testing.B) {
	b.Run("escalation-on", func(b *testing.B) { torchReduction(b, lease.Config{}) })
	b.Run("escalation-off", func(b *testing.B) { torchReduction(b, lease.Config{NoTauEscalation: true}) })
}

// BenchmarkAblationAdaptiveTerms quantifies the §5.2 common-case
// optimisation: adaptive terms cut the number of term checks (accounting
// work) for a well-behaved app by an order of magnitude.
func BenchmarkAblationAdaptiveTerms(b *testing.B) {
	run := func(b *testing.B, cfg lease.Config) {
		checks := 0
		for i := 0; i < b.N; i++ {
			s := sim.New(sim.Options{Policy: sim.LeaseOS, Lease: cfg})
			app := apps.NewSpotify(s, 100)
			app.Start()
			s.Run(30 * time.Minute)
			checks = s.Leases.TermChecks
		}
		b.ReportMetric(float64(checks), "term-checks")
	}
	b.Run("adaptive-on", func(b *testing.B) { run(b, lease.Config{}) })
	b.Run("adaptive-off", func(b *testing.B) { run(b, lease.Config{NoAdaptiveTerms: true}) })
}

// BenchmarkAblationUtilityVsHoldingTime contrasts the utilitarian
// classifier with pure holding-time throttling on a legitimate tracker:
// the former preserves all track points, the latter destroys them.
func BenchmarkAblationUtilityVsHoldingTime(b *testing.B) {
	run := func(b *testing.B, pol sim.Policy) {
		points := 0
		for i := 0; i < b.N; i++ {
			s := sim.New(sim.Options{Policy: pol, ThrottleTerm: time.Minute})
			s.World.SetMotion(true, 2.5)
			app := apps.NewRunKeeper(s, 100)
			app.Start()
			s.Run(30 * time.Minute)
			points = app.TrackPoints
		}
		b.ReportMetric(float64(points), "track-points")
	}
	b.Run("utility-lease", func(b *testing.B) { run(b, sim.LeaseOS) })
	b.Run("holding-time-throttle", func(b *testing.B) { run(b, sim.Throttle) })
}

// BenchmarkAblationExceptionSignal quantifies the exception-based generic
// utility: without it, the K-9 disconnected loop looks well-utilised and
// escapes classification entirely.
func BenchmarkAblationExceptionSignal(b *testing.B) {
	run := func(b *testing.B, withSignal bool) {
		reduction := 0.0
		for i := 0; i < b.N; i++ {
			energy := func(pol sim.Policy) float64 {
				s := sim.New(sim.Options{Policy: pol,
					Lease: lease.Config{NoExceptionSignal: !withSignal}})
				s.World.SetNetwork(false, false)
				app := apps.NewK9(s, 100)
				app.Start()
				s.Run(30 * time.Minute)
				return s.Meter.EnergyOfJ(100)
			}
			base := energy(sim.Vanilla)
			withLease := energy(sim.LeaseOS)
			reduction = 100 * (1 - withLease/base)
		}
		b.ReportMetric(reduction, "reduction%")
	}
	b.Run("exception-signal-on", func(b *testing.B) { run(b, true) })
	b.Run("exception-signal-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationReputation quantifies the §8 reputation extension on a
// leak that mints a fresh kernel object per cycle (per-lease escalation
// resets; per-app reputation does not).
func BenchmarkAblationReputation(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		reduction := 0.0
		for i := 0; i < b.N; i++ {
			energy := func(pol sim.Policy) float64 {
				cfg := lease.DefaultConfig()
				cfg.EnableReputation = enable
				s := sim.New(sim.Options{Policy: pol, Lease: cfg})
				s.Apps.NewProcess(100, "leaker")
				for c := 0; c < 12; c++ {
					wl := s.Power.NewWakelock(100, hooks.Wakelock, "cycle")
					wl.Acquire()
					s.Run(2 * time.Minute)
					wl.Destroy()
				}
				return s.Meter.EnergyOfJ(100)
			}
			base := energy(sim.Vanilla)
			withLease := energy(sim.LeaseOS)
			reduction = 100 * (1 - withLease/base)
		}
		b.ReportMetric(reduction, "reduction%")
	}
	b.Run("reputation-on", func(b *testing.B) { run(b, true) })
	b.Run("reputation-off", func(b *testing.B) { run(b, false) })
}

func BenchmarkSection23(b *testing.B) { runExperiment(b, exp.Section23) }

func BenchmarkDetectionLatency(b *testing.B) { runExperiment(b, exp.DetectionLatency) }

func BenchmarkWindowSweep(b *testing.B) { runExperiment(b, exp.WindowSweep) }

func BenchmarkFixedApps(b *testing.B) { runExperiment(b, exp.FixedApps) }

func BenchmarkCrossDevice(b *testing.B) { runExperiment(b, exp.CrossDevice) }

// BenchmarkFleetDevice measures the per-device cost of a population sweep:
// one b.N-device fleet, so ns/op is the marginal device (drawn config +
// pooled world reset + 30 simulated minutes + streamed aggregation) and
// devices/sec is the fleet engine's single-box throughput.
func BenchmarkFleetDevice(b *testing.B) {
	fleet(b, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
}

const panelWindow = 30 * time.Minute

// runPanelCell simulates one panel device for the window on a pooled world —
// the path a fleet worker takes — one event at a time, so they can be counted.
func runPanelCell(pool *sim.Pool, pol sim.Policy, app simtest.PanelApp) (events int) {
	s := pool.Get(sim.Options{Policy: pol})
	defer pool.Put(s)
	app.Install(s, 100)
	for {
		at, ok := s.Engine.Next()
		if !ok || at > panelWindow {
			return events
		}
		s.Engine.Step()
		events++
	}
}

// BenchmarkPanelDevice is the simulator's cost table, one cell per
// policy × panel app: what an event costs (ns/event) and how many a window
// holds (events/op). A cell whose ns/event stands far above its column is a
// cost that grows with something other than the events delivered — how the
// quadratic re-gating of a paused backlog (DESIGN.md §9 "Gating follows
// flips") was found. TestPanelCellsCostAlike holds the table flat in tier-1.
func BenchmarkPanelDevice(b *testing.B) {
	for _, pol := range sim.Policies() {
		for _, app := range simtest.Panel {
			b.Run(pol.String()+"/"+app.Name, func(b *testing.B) {
				pool := sim.NewPool()
				events := runPanelCell(pool, pol, app) // builds the world
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					events = runPanelCell(pool, pol, app)
				}
				b.ReportMetric(float64(events), "events/op")
				if events > 0 { // vanilla Torch: a leaked wakelock and nothing else
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
				}
			})
		}
	}
}

// TestPanelCellsCostAlike fails when an event under some policy costs more
// than four times what the same app's events cost under no policy at all
// (best of five runs each; cells under 500 events are too short to time).
// Policies differ by tens of per cent per event; the re-gating quadratic was
// 24×.
func TestPanelCellsCostAlike(t *testing.T) {
	perEvent := func(pool *sim.Pool, pol sim.Policy, app simtest.PanelApp) (ns float64, events int) {
		events = runPanelCell(pool, pol, app) // builds the world
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			runPanelCell(pool, pol, app)
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return float64(best) / float64(events), events
	}
	for _, app := range simtest.Panel {
		pool := sim.NewPool()
		base, _ := perEvent(pool, sim.Vanilla, app)
		for _, pol := range sim.Policies()[1:] {
			ns, events := perEvent(pool, pol, app)
			if events < 500 {
				continue
			}
			t.Logf("%s/%s: %d events, %.0f ns/event (vanilla %.0f)", pol, app.Name, events, ns, base)
			if ns > 4*base {
				t.Errorf("%s/%s: %.0f ns/event over %d events, more than 4× vanilla's %.0f",
					pol, app.Name, ns, events, base)
			}
		}
	}
}

func figure12() exp.Result { return exp.Figure12(3) }

func fleet(tb testing.TB, devices int) {
	rep := exp.RunFleet(exp.FleetConfig{Devices: devices, Seed: 1})
	if len(rep.PerPolicy) == 0 {
		tb.Fatal("empty fleet report")
	}
}

// TestSimulatorAllocCeilings holds the simulator's allocs/op in tier-1, over
// the same functions the benchmarks of the same names loop. World reuse
// (PR 8) cut a regeneration's allocations 18–300× — BatteryLife 64 k → 202,
// Table5 119 k → 3.2 k, Figure12 40 k → 2.2 k — and each of those ceilings is
// a tenth of the old cost: far above the few-per-cent drift worker scheduling
// causes run to run, far below what a world rebuilt per run would cost. A
// fleet device's is tighter, 1.5× the ~390 it measures in this 64-device
// fleet (its share of the fleet's world builds included): one closure
// allocated per sensor event in one app mix of eight — Haven's, until it was
// bound once — put the figure at 620.
func TestSimulatorAllocCeilings(t *testing.T) {
	const devices = 64
	for _, pin := range []struct {
		name    string
		ceiling float64
		ops     float64 // operations one run performs
		run     func()
	}{
		{"BatteryLife", 6400, 1, func() { exp.BatteryLife() }},
		{"Table5", 12000, 1, func() { exp.Table5() }},
		{"Figure12", 4000, 1, func() { figure12() }},
		{"FleetDevice", 600, devices, func() { fleet(t, devices) }},
	} {
		got := testing.AllocsPerRun(1, pin.run) / pin.ops
		t.Logf("%s: %.0f allocs/op", pin.name, got)
		if got > pin.ceiling {
			t.Errorf("%s: %.0f allocs/op, pinned at ≤ %.0f", pin.name, got, pin.ceiling)
		}
	}
}

// heldBytes builds n worlds, runs each through the panel window, and reports
// the live heap they hold between them, per world.
func heldBytes(n int, build func() *sim.Sim) float64 {
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	worlds := make([]*sim.Sim, n)
	base := live()
	for i := range worlds {
		worlds[i] = build()
		worlds[i].Run(panelWindow)
	}
	held := live() - base
	runtime.KeepAlive(worlds)
	return float64(held) / float64(n)
}

// TestWorldFootprint pins what a world holds to the owners that appear in it,
// not to the largest UID among them: each panel app installed at Android's
// first application UID (10 000) holds within 8 KiB of the same world at
// UID 100 (1.26 MiB more while the meter and the framework kept a row per
// UID below the largest), and the benchmark's 48 panel worlds (sim_fleet's
// live_heap_mib) hold under 1.2 MiB between them.
func TestWorldFootprint(t *testing.T) {
	const worlds = 4
	for i, app := range simtest.Panel {
		at := func(uid power.UID) float64 {
			return heldBytes(worlds, func() *sim.Sim {
				s := sim.New(sim.Options{Policy: sim.LeaseOS})
				app.Install(s, uid)
				return s
			})
		}
		if i == 0 {
			at(100) // the binary's first reading counts what it frees
		}
		low, high := at(100), at(10000)
		t.Logf("%s: %.1f KiB a world at UID 100, %.1f KiB at UID 10000", app.Name, low/1024, high/1024)
		if high-low > 8<<10 {
			t.Errorf("%s: a world at UID 10000 holds %.1f KiB more than at UID 100, pinned at ≤ 8 KiB",
				app.Name, (high-low)/1024)
		}
	}
	var i int
	panel := heldBytes(len(sim.Policies())*len(simtest.Panel), func() *sim.Sim {
		pol, app := sim.Policies()[i/len(simtest.Panel)], simtest.Panel[i%len(simtest.Panel)]
		i++
		s := sim.New(sim.Options{Policy: pol})
		app.Install(s, 100)
		return s
	}) * float64(len(sim.Policies())*len(simtest.Panel))
	t.Logf("48 panel worlds: %.2f MiB", panel/(1<<20))
	if panel > 1.2*(1<<20) {
		t.Errorf("the 48 panel worlds hold %.2f MiB, pinned at < 1.2 MiB", panel/(1<<20))
	}
}
