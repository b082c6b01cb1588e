// Package exp contains one runner per table and figure in the paper's
// evaluation (plus the §2 characterisation figures). Each runner builds the
// needed simulation(s), drives the workload, and renders the same rows or
// series the paper reports. `leasesim experiments` (cmd/leasesim) regenerates
// everything; bench_test.go at the repository root exposes each runner as a
// benchmark target.
package exp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// workers is the harness-wide worker count for fanning independent sims
// out across CPUs. Zero means the default (GOMAXPROCS); every runner
// guarantees byte-identical rendered output at any value.
var workers atomic.Int32

// SetParallelism sets the number of workers the harness uses for
// independent simulations. n ≤ 0 restores the default (GOMAXPROCS);
// n = 1 is the sequential reference path.
func SetParallelism(n int) {
	if n <= 0 {
		workers.Store(0)
		return
	}
	workers.Store(int32(n))
}

// Parallelism reports the effective worker count.
func Parallelism() int { return parallel.Normalize(int(workers.Load())) }

// fanOut runs fn over items on the harness worker pool, results in input
// order. Every call site fans out *across* whole simulations; no two
// goroutines ever share one Sim.
func fanOut[T, R any](items []T, fn func(i int, item T) R) []R {
	return parallel.Map(Parallelism(), items, fn)
}

// worldPool recycles simulations across runners and benchmark iterations.
// Building a world costs ~60k allocations; resetting one costs none, and
// sim.Reuse guarantees a reset world behaves byte-identically to a fresh
// one, so pooling changes no experiment output.
var worldPool = sim.NewPool()

// borrowSim returns a world configured per opts, recycling a finished one
// of identical configuration when available. Pair with returnSim.
func borrowSim(opts sim.Options) *sim.Sim { return worldPool.Get(opts) }

// returnSim gives a finished world back to the pool. The caller must be
// done with every object reachable from s.
func returnSim(s *sim.Sim) { worldPool.Put(s) }

// Result is one regenerated artefact.
type Result struct {
	// ID is the artefact tag, e.g. "figure-9" or "table-5".
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Lines is the rendered output, one row or series point per line.
	Lines []string
	// Notes carries caveats (scaling, substitutions).
	Notes []string
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner is one regenerable artefact.
type Runner struct {
	ID    string
	Title string
	Run   func() Result
	// Isolated marks runners that time host wall-clock operations (Table 4):
	// they must not share the machine with concurrently running sims, so the
	// harness executes them alone, after the parallel batch drains.
	Isolated bool
}

// Runners lists every experiment in paper order. Quick mode shrinks the
// randomised sweeps (Figures 12 and 13) so the full suite stays fast.
func Runners(quick bool) []Runner {
	seeds := 8
	cases := 50
	if quick {
		seeds = 3
		cases = 10
	}
	return []Runner{
		{ID: "figure-1", Title: "BetterWeather GPS try duration", Run: Figure1},
		{ID: "figure-2", Title: "K-9 holding vs CPU, bad server", Run: Figure2},
		{ID: "figure-3", Title: "Kontalk on two phones", Run: Figure3},
		{ID: "figure-4", Title: "K-9 holding vs CPU, disconnected", Run: Figure4},
		{ID: "section-2.3", Title: "holding time is a misleading classifier", Run: Section23},
		{ID: "table-1", Title: "misbehaviour applicability matrix", Run: Table1},
		{ID: "table-2", Title: "109-case prevalence study", Run: Table2},
		{ID: "figure-5", Title: "lease state transitions", Run: Figure5},
		{ID: "figure-9", Title: "holding time vs lease term", Run: Figure9},
		{ID: "table-4", Title: "lease operation latency", Run: Table4, Isolated: true},
		{ID: "figure-11", Title: "active leases over one hour", Run: Figure11},
		{ID: "table-5", Title: "20 buggy apps under four policies", Run: Table5},
		{ID: "usability", Title: "normal apps: LeaseOS vs throttling", Run: Usability},
		{ID: "figure-12", Title: "waste reduction vs λ", Run: func() Result { return Figure12(cases) }},
		{ID: "figure-13", Title: "system power overhead", Run: func() Result { return Figure13(seeds) }},
		{ID: "figure-14", Title: "end-to-end interaction latency", Run: Figure14},
		{ID: "battery-life", Title: "battery-life day", Run: BatteryLife},
		{ID: "detection-latency", Title: "time from defect onset to revocation", Run: DetectionLatency},
		{ID: "window-sweep", Title: "decision-window trade-off", Run: WindowSweep},
		{ID: "fixed-apps", Title: "buggy app + LeaseOS vs the developers' fix", Run: FixedApps},
		{ID: "cross-device", Title: "Table 5 averages on every device profile", Run: CrossDevice},
	}
}

// RunSelected executes the given runners and returns their results in the
// given order. Non-isolated runners fan out across the worker pool;
// isolated runners (host wall-clock micro benchmarks) run strictly alone
// after the parallel batch has drained, so their timings never share the
// machine with other sims.
func RunSelected(runners []Runner) []Result {
	out := make([]Result, len(runners))
	var batch, isolated []int
	for i, r := range runners {
		if r.Isolated {
			isolated = append(isolated, i)
		} else {
			batch = append(batch, i)
		}
	}
	batchResults := fanOut(batch, func(_ int, i int) Result { return runners[i].Run() })
	for k, i := range batch {
		out[i] = batchResults[k]
	}
	for _, i := range isolated {
		out[i] = runners[i].Run()
	}
	return out
}

// minuteProfiler reproduces the paper's §2.1 instrument: "a profiling tool
// that samples a vector of per-app metrics every 60s, e.g., wakelock time,
// CPU usage (sysTime + userTime)".
type minuteProfiler struct {
	lastCPU time.Duration
	stop    func()

	// Per-minute samples.
	Held   []time.Duration
	Active []time.Duration
	Failed []time.Duration
	CPU    []time.Duration
	At     []simclock.Time
}

// newMinuteProfiler samples the object identified by obj() on ctrl every
// interval. obj is a func because some apps create the kernel object
// lazily.
func newMinuteProfiler(s *sim.Sim, uid power.UID, ctrl hooks.Controller, obj func() uint64, interval time.Duration) *minuteProfiler {
	p := &minuteProfiler{}
	p.stop = s.Engine.Ticker(interval, func() {
		id := obj()
		var ts hooks.TermStats
		if id != 0 {
			ts = ctrl.TermStats(id)
		}
		cpu := s.Apps.CPUTimeOf(uid)
		p.Held = append(p.Held, ts.Held)
		p.Active = append(p.Active, ts.Active)
		p.Failed = append(p.Failed, ts.FailedRequestTime)
		p.CPU = append(p.CPU, cpu-p.lastCPU)
		p.At = append(p.At, s.Engine.Now())
		p.lastCPU = cpu
	})
	return p
}

func (p *minuteProfiler) Stop() { p.stop() }

// fmtSecs renders a duration as seconds with one decimal.
func fmtSecs(d time.Duration) string { return fmt.Sprintf("%5.1f", d.Seconds()) }

// nowWall reads the host clock. The Table 4 micro benchmark times real Go
// operations; everything else in this package runs on virtual time.
func nowWall() time.Time { return time.Now() }
