package stats

import "math"

// Accum is an online accumulator for one metric: exact running count, mean,
// min and max, plus a fixed-bin histogram from which
// quantiles are read with at most one bin width of error. Memory is fixed
// at construction — O(bins) regardless of how many samples stream through —
// which is what lets a million-device fleet sweep keep only one Accum per
// (worker, metric) instead of a million raw samples.
//
// Accums merge: Merge folds another accumulator in as if its samples had
// been Added here. Count, min, max and the histogram combine exactly, so
// merging is associative for them; the mean combines in floating point, so
// different merge orders can differ in the last few ulps. Callers needing byte-identical
// output at any parallelism (the fleet engine) must therefore merge partial
// accumulators in a fixed order — e.g. chunk-index order — independent of
// which worker produced them.
type Accum struct {
	n    int64
	mean float64
	min  float64
	max  float64

	lo, hi float64
	width  float64
	bins   []int64
}

// NewAccum builds an accumulator whose histogram spans [lo, hi) with the
// given number of equal bins. Samples outside the range clamp into the edge
// bins (count/mean/min/max stay exact; only quantiles degrade for
// out-of-range mass). bins must be positive and hi must exceed lo.
func NewAccum(lo, hi float64, bins int) *Accum {
	if bins <= 0 || !(hi > lo) {
		panic("stats: NewAccum needs bins > 0 and hi > lo")
	}
	return &Accum{
		lo: lo, hi: hi,
		width: (hi - lo) / float64(bins),
		bins:  make([]int64, bins),
	}
}

// Add folds one sample in.
func (a *Accum) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.mean += (x - a.mean) / float64(a.n)
	a.bins[a.bin(x)]++
}

func (a *Accum) bin(x float64) int {
	i := int((x - a.lo) / a.width)
	if i < 0 {
		return 0
	}
	if i >= len(a.bins) {
		return len(a.bins) - 1
	}
	return i
}

// Merge folds o into a. Both must have been built with identical histogram
// parameters.
func (a *Accum) Merge(o *Accum) {
	if o.n == 0 {
		return
	}
	if a.lo != o.lo || a.hi != o.hi || len(a.bins) != len(o.bins) {
		panic("stats: Merge of accumulators with different histograms")
	}
	if a.n == 0 {
		a.min, a.max = o.min, o.max
	} else {
		if o.min < a.min {
			a.min = o.min
		}
		if o.max > a.max {
			a.max = o.max
		}
	}
	tot := a.n + o.n
	a.mean += (o.mean - a.mean) * float64(o.n) / float64(tot)
	a.n = tot
	for i, c := range o.bins {
		a.bins[i] += c
	}
}

// Mean returns the running mean, or NaN when empty.
func (a *Accum) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Quantile returns the histogram estimate of the q-quantile (q in [0, 1]):
// the bin holding the target rank, linearly interpolated by rank position
// within it, then clamped to the observed [min, max]. For in-range samples
// the estimate is within one bin width of the exact sorted-order value; a
// single-sample accumulator returns that sample exactly (min == max).
// Returns NaN when empty.
func (a *Accum) Quantile(q float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return a.min
	}
	if q >= 1 {
		return a.max
	}
	rank := q * float64(a.n-1)
	cum := int64(0)
	for i, c := range a.bins {
		if c == 0 {
			continue
		}
		// This bin covers ranks [cum, cum+c-1].
		if rank < float64(cum+c) {
			frac := (rank - float64(cum) + 0.5) / float64(c)
			v := a.lo + (float64(i)+clampUnit(frac))*a.width
			return Clamp(v, a.min, a.max)
		}
		cum += c
	}
	return a.max
}

func clampUnit(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
