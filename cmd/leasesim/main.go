// Command leasesim is the simulator's one command: it runs the simulated
// device, regenerates the paper's evaluation, sweeps a device population,
// and emits the synthetic inputs behind the randomised experiments.
//
// Usage:
//
//	leasesim run -app Torch -policy leaseos -duration 30m
//	leasesim run -scenario examples/scenarios/outage.json
//	leasesim experiments [-quick] [-only figure-9,table-5] [-parallel N]
//	leasesim fleet [-devices N] [-seed S] [-window 30m] [-parallelism N] [-check]
//	leasesim trace -kind slices|study|apps
//
// `leasesim <command> -h` lists a command's flags. A run's output is seeded
// and virtual-time, so reruns print the same bytes; Table 4's host-clock
// latency row and fleet's throughput line are the exceptions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// A command defines its flags on fs and returns what runs once they parse.
type command struct {
	name, summary string
	define        func(fs *flag.FlagSet) func(stdout io.Writer) error
}

var commands = []command{
	{"run", "run one app or a JSON scenario on a simulated device", runFlags},
	{"experiments", "regenerate every table and figure of the paper's evaluation", experimentsFlags},
	{"fleet", "sweep a population of simulated devices", fleetFlags},
	{"trace", "emit the synthetic inputs behind the randomised experiments", traceFlags},
}

func main() {
	os.Exit(leasesim(os.Args[1:], os.Stdout, os.Stderr))
}

// leasesim runs the command args names and returns the exit status: 0 on
// success (or a command's -h), 1 when the command fails, 2 on a usage error.
func leasesim(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		fs := flag.NewFlagSet("leasesim "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		exec := c.define(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if err := exec(stdout); err != nil {
			fmt.Fprintf(stderr, "leasesim %s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	if len(args) > 0 {
		fmt.Fprintf(stderr, "leasesim: unknown command %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: leasesim <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
	}
	return 2
}
