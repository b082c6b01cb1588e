package exp

import (
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/lease"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figure9 reproduces the §5.1 lease-term analysis: a test app that holds a
// wakelock for 30 minutes doing nothing, run under lease terms of 30 s,
// 1 min, 3 min and ∞ (no lease).
//
// (a) keeps the deferral interval fixed at 30 s, so λ = τ/term shrinks as
// the term grows and the effective holding time rises (paper: 904 s,
// 1201 s, 1560 s, 1800 s). (b) keeps λ = 1 by scaling τ with the term, and
// the holding time stays ≈ 900 s for every term — confirming that "the
// absolute lease term is not the deciding factor. The ratio it has with the
// average deferral interval is the key."
func Figure9() Result {
	r := Result{ID: "figure-9", Title: "Holding time (s) of a Long-Holding test app vs lease term"}
	const runFor = 30 * time.Minute
	terms := []time.Duration{30 * time.Second, time.Minute, 3 * time.Minute, 0 /* ∞ */}
	labels := []string{"30s", "60s", "180s", "inf"}

	holding := func(term, tau time.Duration) time.Duration {
		var s *sim.Sim
		if term == 0 {
			s = borrowSim(sim.Options{Policy: sim.Vanilla})
		} else {
			s = borrowSim(sim.Options{Policy: sim.LeaseOS, Lease: lease.Config{
				Term: term, Tau: tau,
				NoTauEscalation: true, NoAdaptiveTerms: true,
			}})
		}
		defer returnSim(s)
		app := apps.NewLongHolder(s, 100)
		app.Start()
		s.Run(runFor)
		// Effective holding time = energy / idle-awake draw: the kernel
		// object only burns power while unsuppressed.
		return time.Duration(s.Meter.EnergyOfJ(100) / s.Profile.CPUIdleAwakeW * float64(time.Second))
	}

	// Both sweeps fan out: each (term, τ) cell is one independent sim.
	type cell struct{ term, tau time.Duration }
	var cells []cell
	for _, term := range terms {
		cells = append(cells, cell{term, 30 * time.Second})
	}
	for _, term := range terms {
		cells = append(cells, cell{term, term})
	}
	holdings := fanOut(cells, func(_ int, c cell) time.Duration {
		return holding(c.term, c.tau)
	})
	r.addf("(a) fixed deferral interval τ = 30 s")
	for i := range terms {
		r.addf("  term %-5s holding %6.0f s", labels[i], holdings[i].Seconds())
	}
	r.addf("(b) fixed λ = 1 (τ scales with the term)")
	for i := range terms {
		r.addf("  term %-5s holding %6.0f s", labels[i], holdings[len(terms)+i].Seconds())
	}
	r.notef("paper (a): 904 / 1201 / 1560 / 1800; (b): 900 / 900 / 899 / 1800")
	return r
}

// Figure12 reproduces the λ-sensitivity sweep for intermittent misbehaviour:
// test traces alternate random-length misbehaving and normal slices, and
// the wasted-power reduction ratio is computed for λ = 1..5. The paper ran
// 1000 test cases of 1000+1000 slices; `cases` scales that down (each case
// here uses 20+20 slices), which preserves the statistic while keeping the
// sweep fast.
func Figure12(cases int) Result {
	r := Result{ID: "figure-12", Title: "Reduction ratio of wasted power vs λ (intermittent misbehaviour)"}
	r.Lines = make([]string, 0, 6) // header + five λ rows
	if cases <= 0 {
		cases = 50
	}
	const (
		term      = 5 * time.Second // the paper's default lease term
		slicesPer = 20
		maxSlice  = 10 * time.Minute // the paper's slice-length range
	)

	// waste measures the energy the app draws during misbehaving slices.
	waste := func(seed int64, pol sim.Policy, tau time.Duration) float64 {
		var s *sim.Sim
		if pol == sim.LeaseOS {
			s = borrowSim(sim.Options{Policy: pol, Lease: lease.Config{
				Term: term, Tau: tau,
				NoTauEscalation: true, NoAdaptiveTerms: true,
			}})
		} else {
			s = borrowSim(sim.Options{Policy: pol})
		}
		defer returnSim(s)
		app := apps.NewSliceApp(s, 100, apps.RandomSlices(seed, slicesPer, maxSlice))
		app.Start()
		total := time.Duration(0)
		for _, sl := range apps.RandomSlices(seed, slicesPer, maxSlice) {
			total += sl.Length
		}
		wasted := 0.0
		lastE := 0.0
		stop := s.Engine.Ticker(time.Second, func() {
			e := s.Meter.EnergyOfJ(100)
			if app.Misbehaving() {
				wasted += e - lastE
			}
			lastE = e
		})
		s.Run(total)
		stop()
		return wasted
	}

	r.addf("%-4s %-16s", "λ", "reduction ratio")
	// One unit of pool work per (λ, case) pair: the vanilla baseline and
	// its LeaseOS counterpart share a seed, so they stay in one closure.
	type cell struct {
		lambda int
		seed   int64
	}
	var cells []cell
	for lambda := 1; lambda <= 5; lambda++ {
		for c := 0; c < cases; c++ {
			cells = append(cells, cell{lambda, int64(c + 1)})
		}
	}
	ratios := fanOut(cells, func(_ int, c cell) float64 {
		base := waste(c.seed, sim.Vanilla, 0)
		if base <= 0 {
			return math.NaN()
		}
		return 1 - waste(c.seed, sim.LeaseOS, time.Duration(c.lambda)*term)/base
	})
	for lambda := 1; lambda <= 5; lambda++ {
		kept := make([]float64, 0, cases)
		for c := 0; c < cases; c++ {
			if v := ratios[(lambda-1)*cases+c]; !math.IsNaN(v) {
				kept = append(kept, v)
			}
		}
		r.addf("%-4d %.2f (± %.2f over %d cases)", lambda, stats.Mean(kept), stats.StdErr(kept), len(kept))
	}
	r.notef("paper: 0.49 / 0.66 / 0.74 / 0.78 / 0.82 — larger λ reduces more waste but raises the misjudgement penalty")
	r.notef("scaled: %d cases of %d+%d slices (paper: 1000 cases of 1000+1000 slices)", cases, 20, 20)
	return r
}
