// Package stats provides the small statistical toolkit the experiment
// harness needs: seeded random sources for reproducible workloads and
// summary aggregates (mean, standard deviation, standard error,
// percentiles) for reporting results with error bars.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 for slices with fewer than two elements.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// StdErr returns the standard error of the mean of xs.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// percentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of an
// already-sorted, non-empty slice using linear interpolation between
// closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// The input is copied, not mutated. Callers that need several quantiles of
// one series should use Percentiles, which sorts the copy only once.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// Percentiles returns the requested percentiles of xs, in the order asked,
// from a single sorted copy of the input — the batch form of Percentile
// for call sites that take several quantiles of the same series. An empty
// xs yields all zeros.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the aggregates the experiment tables report.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	StdErr float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		StdErr: StdErr(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// String renders the summary as "mean ± stderr (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean, s.StdErr, s.N)
}

// Ratio returns num/den, or 0 when den is 0. Resource-utilisation metrics
// divide by observed durations that are legitimately zero in idle terms, so
// the zero case is defined rather than NaN.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ranks assigns average ranks to xs (ties share the mean rank).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = mean
		}
		i = j + 1
	}
	return out
}

// Pearson returns the Pearson correlation coefficient of paired samples,
// or 0 when it is undefined (fewer than two pairs or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of paired samples: the
// Pearson correlation of their ranks. It is the right statistic for
// "does the simulator order these the way the paper does".
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}
