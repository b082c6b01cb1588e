package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lease"
)

// smokeConfig shrinks a run to about a second: 100 clients, 512 devices,
// terms and failure detection several times faster than the real run's.
func smokeConfig(t *testing.T, workload string) *config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace = workload, true
	cfg.seconds = 1.2
	cfg.clients, cfg.devices, cfg.ledgerOps = 100, 512, 400
	cfg.lease = lease.Config{Term: 150 * time.Millisecond, Tau: 300 * time.Millisecond, TauMax: 1200 * time.Millisecond, MisbehaviorWindow: 4}
	cfg.tuning = cluster.Tuning{PingEvery: 40 * time.Millisecond, MissedPings: 8}
	cfg.leaderLease = 240 * time.Millisecond
	// Scratch space inside the repository, under the ignored build directory.
	root := filepath.Join("..", ".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.MkdirTemp(root, "smoke-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(tmp) })
	cfg.tmp = tmp
	return cfg
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFile holds BENCHMARK.json to the driver's limits and to the
// names this program emits.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		check(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program has %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check(m.Name)
		if spec := endToEnd[i]; m.Name != spec.name || m.Unit != spec.unit || m.Better != spec.better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, spec)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound < endToEnd[i].bound {
			t.Errorf("metric %s: bound %v, want its floor %v to 0.25", m.Name, m.Bound, endToEnd[i].bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bf.PerLayer {
		check(m.Name)
		if spec := perLayer[i]; m.Name != spec.name || m.Unit != spec.unit || m.Better != spec.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, spec)
		}
	}
}

// TestSmoke runs every workload, traced, at about a second, and checks the
// result lines: the schema, the names, that every metric BENCHMARK.json lists
// is emitted, that every end-to-end metric is a positive number, and that the
// run's own output checks held.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name)
			out, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			report := t.Errorf
			if raceEnabled {
				report = t.Logf
			}
			for _, p := range out.problems {
				report("output check failed: %s", p)
			}
			if out.failed != 0 {
				report("%d of %d operations failed", out.failed, out.attempted)
			}
			for _, traced := range []bool{false, true} {
				var res struct {
					Correct   *bool  `json:"correct"`
					Attempted *int64 `json:"attempted"`
					Failed    *int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				line := resultLine(out, traced)
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatalf("result line does not parse: %v\n%s", err, line)
				}
				var keys map[string]json.RawMessage
				json.Unmarshal(line, &keys)
				if len(keys) != 4 || res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
					t.Fatalf("result line must have exactly correct, attempted, failed, metrics: %s", line)
				}
				if *res.Attempted < 1 {
					t.Errorf("attempted %d, want at least 1", *res.Attempted)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("result line carries %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s is not emitted", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s: unit %q, want %q", m.name, got.Unit, m.unit)
					case !traced && *got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want a positive number", m.name, *got.Value)
					}
				}
			}
			if name != wSimFleet && out.ledger == nil {
				t.Error("traced daemon run produced no ledger")
			}
			if name == wCluster3 && out.layer["failover_s"] <= 0 && !raceEnabled {
				t.Error("cluster3 measured no failover")
			}
		})
	}
}

// TestQuartileSpread pins the spread measure to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
