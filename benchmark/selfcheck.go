package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// stealLimit is the share of machine CPU time stolen by the hypervisor above
// which a run says more about the neighbours than about the code.
const stealLimit = 50.0

// benchmarkFile mirrors BENCHMARK.json, the driver's description of this
// benchmark, key for key.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDesc   `json:"end_to_end"`
	PerLayer   []layerDesc    `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDesc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDesc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFilePath finds BENCHMARK.json from the repository root or from
// the benchmark's own directory.
func benchmarkFilePath() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "BENCHMARK.json"
	}
	return "../BENCHMARK.json"
}

func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(benchmarkFilePath())
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them — the driver's own measure of
// how well a metric repeats.
func quartileSpread(values []float64) float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	ld := len(x)
	if ld < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return (q(3) - q(1)) / q(2)
}

// runSelfcheck runs the untraced set n times back to back, each set at its
// own seed, prints every end-to-end value side by side, and fails when a
// later set is worse than the first by more than the metric's bound, when an
// output check fails, or when the hypervisor stole too much of a run for it
// to count. With five sets or more it also measures each metric's quartile
// spread and rewrites the bounds in BENCHMARK.json as
// max(floor, 2 × worst spread), capped at the contract's 0.25.
func runSelfcheck(cfg *config, n int) int {
	printEnv(cfg)
	bf, err := readBenchmarkFile()
	if err != nil {
		fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	code := 0
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for _, name := range workloadNames {
		values[name] = map[string][]float64{}
	}
	for set := 0; set < n; set++ {
		for _, name := range workloadNames {
			c := *cfg
			c.workload, c.seed, c.trace = name, cfg.seed+int64(set), false
			out, err := run(&c)
			if err != nil {
				fatal(err)
			}
			for _, m := range endToEnd {
				values[name][m.name] = append(values[name][m.name], out.e2e[m.name])
			}
			fmt.Printf("set %d %-14s seed %d steal %.1f %% attempted %d failed %d\n", set+1, name, c.seed, out.layer["env.steal_pct"], out.attempted, out.failed)
			for _, p := range out.problems {
				fmt.Printf("  CHECK FAILED: %s\n", p)
				code = 1
			}
			if out.failed > 0 {
				code = 1
			}
			if s := out.layer["env.steal_pct"]; s > stealLimit {
				fmt.Printf("  INVALID: %.1f %% of the machine's CPU time was stolen during this run (limit %.0f %%)\n", s, stealLimit)
				code = 1
			}
		}
	}

	worst := map[string]float64{}
	fmt.Printf("\n%-14s %-14s %9s %9s   values per set\n", "workload", "metric", "worse by", "bound")
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			vs := values[name][m.name]
			// Every end-to-end metric is lower-is-better.
			worse := 0.0
			for _, v := range vs[1:] {
				worse = max(worse, (v-vs[0])/vs[0])
			}
			verdict := ""
			if worse > bounds[m.name] {
				verdict = "  BEYOND BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-14s %8.1f%% %8.1f%%   %.4g%s\n", name, m.name, 100*worse, 100*bounds[m.name], vs, verdict)
			if n >= 5 {
				worst[m.name] = max(worst[m.name], quartileSpread(vs))
			}
		}
	}
	if n >= 5 {
		fmt.Printf("\n%-14s %14s %9s %9s\n", "metric", "worst spread", "floor", "bound")
		for i, m := range bf.EndToEnd {
			floor := 0.0
			for _, spec := range endToEnd {
				if spec.name == m.Name {
					floor = spec.bound
				}
			}
			bf.EndToEnd[i].Bound = min(0.25, max(floor, float64(int(200*worst[m.Name]+0.999))/100))
			fmt.Printf("%-14s %13.1f%% %8.0f%% %8.0f%%\n", m.Name, 100*worst[m.Name], 100*floor, 100*bf.EndToEnd[i].Bound)
		}
		b, _ := json.MarshalIndent(bf, "", "  ")
		if err := os.WriteFile(benchmarkFilePath(), append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("bounds written to %s\n", benchmarkFilePath())
	}
	return code
}
