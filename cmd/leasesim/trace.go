package main

// leasesim trace emits the synthetic inputs behind the randomised
// experiments, for inspection or external analysis:
//
//	leasesim trace -kind slices -seed 1 -n 20   # Figure 12 slice traces (JSON)
//	leasesim trace -kind study                  # Table 2's 109-case list (CSV)
//	leasesim trace -kind apps                   # Table 5 app inventory (CSV)

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/study"
)

func traceFlags(fs *flag.FlagSet) func(io.Writer) error {
	kind := fs.String("kind", "slices", "slices|study|apps")
	seed := fs.Int64("seed", 1, "trace seed (slices)")
	n := fs.Int("n", 20, "misbehaving/normal slice pairs (slices)")
	max := fs.Duration("max", 10*time.Minute, "maximum slice length (slices)")
	return func(stdout io.Writer) error {
		switch *kind {
		case "slices":
			if *n < 0 {
				return fmt.Errorf("-n must not be negative, got %d", *n)
			}
			if *max <= 0 {
				return fmt.Errorf("-max must be positive, got %v", *max)
			}
			enc := json.NewEncoder(stdout)
			for _, sl := range apps.RandomSlices(*seed, *n, *max) {
				if err := enc.Encode(struct {
					Misbehave bool   `json:"misbehave"`
					LengthMS  int64  `json:"length_ms"`
					Length    string `json:"length"`
				}{sl.Misbehave, sl.Length.Milliseconds(), sl.Length.String()}); err != nil {
					return err
				}
			}
			return nil
		case "study":
			rows := [][]string{{"id", "app", "source", "behavior", "root_cause"}}
			for _, c := range study.Cases() {
				behavior := c.Behavior.String()
				if c.Behavior == study.BehaviorNA {
					behavior = "N/A"
				}
				rows = append(rows, []string{strconv.Itoa(c.ID), c.App, c.Source, behavior, c.Cause.String()})
			}
			return csv.NewWriter(stdout).WriteAll(rows)
		case "apps":
			rows := [][]string{{"app", "category", "resource", "behavior",
				"paper_vanilla_mw", "paper_leaseos_mw", "paper_doze_mw", "paper_defdroid_mw"}}
			for _, sp := range apps.Table5Specs() {
				rows = append(rows, []string{
					sp.Name, sp.Category, sp.Resource.String(), sp.Behavior.String(),
					fmt.Sprint(sp.PaperMW[0]), fmt.Sprint(sp.PaperMW[1]),
					fmt.Sprint(sp.PaperMW[2]), fmt.Sprint(sp.PaperMW[3]),
				})
			}
			return csv.NewWriter(stdout).WriteAll(rows)
		}
		return fmt.Errorf("unknown kind %q", *kind)
	}
}
