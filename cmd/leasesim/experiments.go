package main

// leasesim experiments regenerates every table and figure of the paper's
// evaluation from the simulator and prints them in paper order.
//
// Independent simulations fan out across -parallel workers (default
// GOMAXPROCS); the rendered output is byte-identical at any worker count,
// and -parallel 1 is the sequential reference path.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// run, so a kernel (simclock/power) regression can be diagnosed from a
// normal regeneration pass: `go tool pprof leasesim cpu.out`.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
)

func experimentsFlags(fs *flag.FlagSet) func(io.Writer) error {
	quick := fs.Bool("quick", false, "shrink the randomised sweeps for a fast pass")
	only := fs.String("only", "", "comma-separated artefact ids to run (e.g. figure-9,table-5)")
	par := fs.Int("parallel", 0, "worker count for independent sims (0 = GOMAXPROCS, 1 = sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	return func(stdout io.Writer) (err error) {
		// Validate ids before any experiment runs: a typo must fail fast,
		// not after a full (and possibly hours-long) regeneration pass.
		selected, err := selectRunners(exp.Runners(*quick), *only)
		if err != nil {
			return err
		}
		exp.SetParallelism(*par)

		// Start profiling only once flag validation is done, so profiles
		// cover the experiments themselves rather than argument parsing.
		if *cpuprofile != "" {
			f, ferr := os.Create(*cpuprofile)
			if ferr != nil {
				return ferr
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			defer func() {
				pprof.StopCPUProfile()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
		}
		if *memprofile != "" {
			defer func() {
				if werr := writeHeapProfile(*memprofile); err == nil {
					err = werr
				}
			}()
		}

		for _, result := range exp.RunSelected(selected) {
			fmt.Fprintln(stdout, result.String())
		}
		return nil
	}
}

// selectRunners returns the runners only names, in paper order, each once;
// an empty only selects them all.
func selectRunners(runners []exp.Runner, only string) ([]exp.Runner, error) {
	if only == "" {
		return runners, nil
	}
	ids := strings.Split(only, ",")
	want := map[string]bool{}
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
		want[ids[i]] = ids[i] != ""
	}
	var selected []exp.Runner
	known := "known ids:"
	for _, r := range runners {
		if want[r.ID] {
			selected = append(selected, r)
		}
		delete(want, r.ID)
		known += "\n  " + r.ID
	}
	var unknown []string
	for _, id := range ids {
		if want[id] {
			unknown = append(unknown, id)
			want[id] = false // name a repeated typo once
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown ids %s; %s", strings.Join(unknown, ", "), known)
	}
	return selected, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
