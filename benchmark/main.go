// Command benchmark is the repository's benchmark: five workloads over the
// two systems the repo ships (the leased daemon and the simulator), four
// end-to-end metrics the driver gates on, and a per-layer ledger taken from
// outside the program. It claims no gain; it is the instrument later claims
// are read from. README.md in this directory describes every workload and
// metric.
//
//	go run . -workload renew_durable -seed 1 -seconds 16 -trace 0
//	go run . -all -seed 1            # every workload, every metric
//	go run . -selfcheck 2            # run the set twice, compare against the bounds
//
// The last line of standard output of a -workload run is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/leased"
)

// config is one run's parameters. The flags set workload, seed, seconds and
// trace; the rest are fixed here so that every run measures the same thing
// (the smoke test shrinks them).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	clients int // daemon workloads: population size
	conns   int // closed-loop connections
	devices int // sim_fleet: devices per fleet iteration
	lease   lease.Config
	// cluster3's failure detector and leadership lease: zero = the daemon's
	// defaults (ping 250 ms × 4 missed, lease term 750 ms).
	tuning      cluster.Tuning
	leaderLease time.Duration
	// ledgerOps is how many operations the traced run replays through each
	// ledger rung.
	ledgerOps int

	tmp      string // scratch directory, inside the checkout
	traceOut string // where the traced run writes its spans ("" = under tmp)
}

const batchSize = 64

func defaultConfig() *config {
	return &config{
		seed:    1,
		seconds: 16,
		clients: 2000,
		conns:   min(runtime.NumCPU(), 4),
		devices: 2048, // four of RunFleet's 512-device chunks
		// One-second terms so a run of a few seconds sees every client
		// through several term checks; window 4 so one slow term on a busy
		// machine cannot defer a well-behaved client.
		lease:     lease.Config{Term: time.Second, Tau: 2 * time.Second, TauMax: 8 * time.Second, MisbehaviorWindow: 4},
		ledgerOps: 20000,
	}
}

// daemonOptions is the daemon under test: two shards, everything else at
// cmd/leased's defaults — except batch_durable's and cluster3's checkpoint
// cadence. At the default 1024 records a checkpoint (3.4 MB of state encoded
// and written, 11 ms on a quiet machine, 30 ms beside a busy neighbour) is
// half of batch_durable's CPU, and its figures then split into a
// quiet-machine mode and a busy-machine mode 45 % apart. On cluster3 three
// nodes checkpoint, the followers whenever their apply loops get there: a
// 20 ms lump that lands in a 100 ms slice of the workload or of the yardstick
// as it happens (cpu_us_per_op spread 14 % over ten runs). At 8192 both
// measure what they are there for: codec and apply, replication and
// failover. renew_durable keeps the default and carries the checkpoint cost.
func (c *config) daemonOptions() leased.Options {
	opts := leased.Options{Lease: c.lease, Shards: 2}
	if c.workload == wBatchDurable || c.workload == wCluster3 {
		opts.SnapshotEvery = sparseSnapshotEvery
	}
	return opts
}

const sparseSnapshotEvery = 8192

func (c *config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// slices is how many slices a measured phase gives the workload: each is
// yardSlice long and followed by as long a slice of the yardstick, at least
// eight pairs. A traced phase also compares neighbouring workload slices
// with and without spans.
func (c *config) slices() int { return max(8, int(c.measure()/(2*yardSlice))) }

func (c *config) writeTrace(tr *tracer) error {
	path := c.traceOut
	if path == "" {
		path = filepath.Join(c.tmp, "trace-"+c.workload+".json")
	}
	if err := tr.writeChrome(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: spans written to %s (Chrome trace-event JSON; opens in Perfetto)\n", path)
	return nil
}

// run executes one workload.
func run(cfg *config) (*outcome, error) {
	switch cfg.workload {
	case wRenewMem:
		return runSingle(cfg, false, 0)
	case wRenewDurable:
		return runSingle(cfg, true, 0)
	case wBatchDurable:
		return runSingle(cfg, true, batchSize)
	case wCluster3:
		return runCluster3(cfg)
	case wSimFleet:
		return runSimFleet(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

func main() {
	cfg := defaultConfig()
	var (
		all       = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		selfcheck = flag.Int("selfcheck", 0, "run the untraced set `n` times back to back and compare every end-to-end metric against its bound; with n >= 5 also rewrite the bounds in BENCHMARK.json from the measured spread")
		ledger    = flag.Bool("ledger", false, "with -all or a traced -workload: write the rung tables to LEDGER.md in the benchmark's directory")
		trace     = flag.Int("trace", 0, "1 = the traced run (per-layer metrics, ledger, span file); 0 = the untraced run (end-to-end metrics)")
	)
	flag.StringVar(&cfg.workload, "workload", "", "run one workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed: fixes client names, visit order, usage values, the kill instant and the fleet")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured phase")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file for the traced run's spans (default: under the scratch directory)")
	flag.Parse()
	cfg.trace = *trace == 1
	if flag.NArg() > 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark (-workload name | -all | -selfcheck n) [-seed n] [-seconds n] [-trace 0|1]")
		os.Exit(2)
	}
	if err := setScratch(cfg); err != nil {
		fatal(err)
	}
	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(cfg, *selfcheck))
	case *all:
		os.Exit(runAll(cfg, *ledger))
	case cfg.workload != "":
		printEnv(cfg)
		out, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		printOutcome(out, cfg.trace)
		if *ledger && out.ledger != nil {
			if err := writeLedgerFile([]*outcome{out}, cfg); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("%s\n", resultLine(out, cfg.trace))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// setScratch picks the scratch directory: $BENCH_TMP when the wrapper script
// set it, else .bench_build/tmp under the working directory. Either way it is
// inside the checkout and ignored by git.
func setScratch(cfg *config) error {
	cfg.tmp = os.Getenv("BENCH_TMP")
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(".bench_build", "tmp")
	}
	return os.MkdirAll(cfg.tmp, 0o755)
}

// runAll runs every workload untraced and traced, printing every metric.
func runAll(cfg *config, ledger bool) int {
	printEnv(cfg)
	code := 0
	var traced []*outcome
	for _, name := range workloadNames {
		for _, tr := range []bool{false, true} {
			c := *cfg
			c.workload, c.trace = name, tr
			out, err := run(&c)
			if err != nil {
				fatal(err)
			}
			printOutcome(out, tr)
			if len(out.problems) > 0 || out.failed > 0 {
				code = 1
			}
			if tr {
				traced = append(traced, out)
			}
		}
	}
	if ledger {
		if err := writeLedgerFile(traced, cfg); err != nil {
			fatal(err)
		}
	}
	return code
}

// printEnv records the machine and the run's parameters, so a result can be
// read without knowing where it came from.
func printEnv(cfg *config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu":         cpuModel(),
		"go":          runtime.Version(),
		"commit":      commit,
		"seed":        cfg.seed,
		"connections": cfg.conns,
		"clients":     cfg.clients,
		"seconds":     cfg.seconds,
		"setup":       sprintf("median of %d set-ups against the yardstick, %d passes over the population each", setupRepeats, setupPasses),
	}
	b, _ := json.Marshal(env)
	fmt.Printf("env %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printOutcome prints every metric the run produced, by name with its unit.
func printOutcome(out *outcome, traced bool) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Printf("\n== %s (%s): attempted %d, failed %d\n", out.workload, kind, out.attempted, out.failed)
	if !traced {
		for _, m := range endToEnd {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, out.e2e[m.name], m.unit)
		}
	}
	for _, m := range perLayer {
		if v, ok := out.layer[m.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	if out.ledger != nil {
		fmt.Print(ledgerTable(out))
	}
	for _, p := range out.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// resultLine renders the driver's result object: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one.
func resultLine(out *outcome, traced bool) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, vals := endToEnd, out.e2e
	if traced {
		specs, vals = perLayer, out.layer
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, m := range specs {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	b, _ := json.Marshal(res)
	return b
}
