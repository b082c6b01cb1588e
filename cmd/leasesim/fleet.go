package main

// leasesim fleet runs the fleet-scale population sweep: N simulated devices
// drawn from a weighted population over hardware profile × app mix ×
// policy, reporting the battery-life distribution and defaulter rate per
// policy.
//
// Results stream into fixed-size accumulators, so memory is O(workers)
// regardless of N — a million-device sweep is just a longer run, not a
// bigger one. Output is byte-identical at any -parallelism for a given
// seed/devices/window.
//
// -check exits non-zero if the sweep is degenerate (a policy drew no
// devices, battery life did not vary, or no governor produced a mixed
// defaulter population) — the CI smoke-test hook.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/exp"
)

func fleetFlags(fs *flag.FlagSet) func(io.Writer) error {
	devices := fs.Int("devices", 20000, "population size")
	seed := fs.Uint64("seed", 1, "fleet seed (device i derives from SplitMix64(seed, i))")
	window := fs.Duration("window", 30*time.Minute, "simulated time per device")
	par := fs.Int("parallelism", 0, "worker count (0 = GOMAXPROCS, 1 = sequential)")
	check := fs.Bool("check", false, "fail if the distributions are degenerate (CI smoke test)")
	return func(stdout io.Writer) error {
		if *devices <= 0 {
			return errors.New("-devices must be positive")
		}
		if *window <= 0 {
			return fmt.Errorf("-window must be positive, got %v", *window)
		}
		exp.SetParallelism(*par)

		start := time.Now()
		rep := exp.RunFleet(exp.FleetConfig{Devices: *devices, Seed: *seed, Window: *window})
		elapsed := time.Since(start)

		fmt.Fprintln(stdout, rep.Render().String())

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(stdout, "\n%d devices in %s (%.0f devices/sec, %d workers, heap %d MiB)\n",
			*devices, elapsed.Round(time.Millisecond),
			float64(*devices)/elapsed.Seconds(), exp.Parallelism(), ms.HeapAlloc>>20)

		if *check {
			if reason, bad := rep.Degenerate(); bad {
				return fmt.Errorf("degenerate sweep: %s", reason)
			}
			fmt.Fprintln(stdout, "check: distributions are non-degenerate")
		}
		return nil
	}
}
