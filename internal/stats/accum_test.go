package stats

import (
	"math"
	"testing"
)

func TestAccumEmpty(t *testing.T) {
	a := NewAccum(0, 10, 8)
	if a.n != 0 {
		t.Fatalf("n = %d, want 0", a.n)
	}
	for name, v := range map[string]float64{
		"Mean": a.Mean(), "Quantile": a.Quantile(0.5),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty accum = %v, want NaN", name, v)
		}
	}
	// Merging an empty accumulator must be a no-op, and merging into an
	// empty one must copy the other side's state.
	b := NewAccum(0, 10, 8)
	b.Add(3)
	b.Merge(a)
	if b.n != 1 || b.Mean() != 3 {
		t.Fatalf("merge of empty changed state: n=%d mean=%v", b.n, b.Mean())
	}
	a.Merge(b)
	if a.n != 1 || a.Quantile(0) != 3 || a.Quantile(1) != 3 {
		t.Fatalf("merge into empty: n=%d min=%v max=%v", a.n, a.Quantile(0), a.Quantile(1))
	}
}

func TestAccumSingleSample(t *testing.T) {
	a := NewAccum(0, 100, 10)
	a.Add(42.5)
	if a.n != 1 || a.Mean() != 42.5 {
		t.Fatalf("single sample: n=%d mean=%v", a.n, a.Mean())
	}
	// min == max clamps every quantile onto the sample exactly.
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := a.Quantile(q); got != 42.5 {
			t.Fatalf("Quantile(%v) = %v, want 42.5", q, got)
		}
	}
}

func TestAccumMatchesBatch(t *testing.T) {
	r := NewRand(7)
	xs := make([]float64, 0, 5000)
	a := NewAccum(0, 1, 1000)
	for i := 0; i < 5000; i++ {
		x := r.Float64()
		xs = append(xs, x)
		a.Add(x)
	}
	if got, want := a.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if a.Quantile(0) != Min(xs) || a.Quantile(1) != Max(xs) {
		t.Errorf("min/max = %v/%v, want %v/%v", a.Quantile(0), a.Quantile(1), Min(xs), Max(xs))
	}
}

// TestAccumQuantileErrorBound checks the histogram quantile against the
// exact sorted-order percentile: for in-range samples the estimate must be
// within one bin width.
func TestAccumQuantileErrorBound(t *testing.T) {
	const (
		lo, hi = 0.0, 50.0
		bins   = 500
	)
	width := (hi - lo) / bins
	for seed := int64(1); seed <= 5; seed++ {
		r := NewRand(seed)
		a := NewAccum(lo, hi, bins)
		xs := make([]float64, 0, 2000)
		for i := 0; i < 2000; i++ {
			// Skewed, multi-modal data: exponential bulk plus a far mode.
			x := r.ExpFloat64() * 5
			if r.Intn(10) == 0 {
				x = 40 + r.Float64()*5
			}
			if x >= hi {
				x = hi - 1e-9
			}
			xs = append(xs, x)
			a.Add(x)
		}
		for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
			exact := Percentile(xs, q*100)
			got := a.Quantile(q)
			if math.Abs(got-exact) > width {
				t.Errorf("seed %d q=%v: histogram %v vs exact %v (> bin width %v)",
					seed, q, got, exact, width)
			}
		}
	}
}

// TestAccumMergeAssociative checks that (a⊕b)⊕c and a⊕(b⊕c) agree: exactly
// for count, min, max and the histogram (integer state), and to floating-
// point tolerance for the mean (its combination is associative in exact
// arithmetic only).
func TestAccumMergeAssociative(t *testing.T) {
	mk := func(seed int64, n int) *Accum {
		r := NewRand(seed)
		a := NewAccum(-5, 5, 64)
		for i := 0; i < n; i++ {
			a.Add(r.NormFloat64())
		}
		return a
	}
	left := mk(1, 100)
	left.Merge(mk(2, 2000))
	left.Merge(mk(3, 7))

	bc := mk(2, 2000)
	bc.Merge(mk(3, 7))
	right := mk(1, 100)
	right.Merge(bc)

	if left.n != right.n || left.min != right.min || left.max != right.max {
		t.Fatalf("integer/extremum state differs: n=%d/%d min=%v/%v max=%v/%v",
			left.n, right.n, left.min, right.min, left.max, right.max)
	}
	for i := range left.bins {
		if left.bins[i] != right.bins[i] {
			t.Fatalf("histogram bin %d differs: %d vs %d", i, left.bins[i], right.bins[i])
		}
	}
	relClose := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if !relClose(left.Mean(), right.Mean()) {
		t.Errorf("Mean differs beyond tolerance: %v vs %v", left.Mean(), right.Mean())
	}

	// Merging in one go must also agree with streaming every sample through
	// a single accumulator.
	all := NewAccum(-5, 5, 64)
	for _, spec := range []struct {
		seed int64
		n    int
	}{{1, 100}, {2, 2000}, {3, 7}} {
		r := NewRand(spec.seed)
		for i := 0; i < spec.n; i++ {
			all.Add(r.NormFloat64())
		}
	}
	if all.n != left.n || !relClose(all.Mean(), left.Mean()) {
		t.Errorf("merged state differs from streamed state: n=%d/%d mean=%v/%v",
			all.n, left.n, all.Mean(), left.Mean())
	}
}

func TestAccumOutOfRangeClamping(t *testing.T) {
	a := NewAccum(0, 10, 10)
	a.Add(-100)
	a.Add(5)
	a.Add(1000)
	if a.Mean() != (-100+5+1000)/3.0 {
		t.Fatalf("mean must stay exact: %v", a.Mean())
	}
	// Quantiles clamp to observed extrema, not the histogram range.
	if q := a.Quantile(0); q != -100 {
		t.Fatalf("Quantile(0) = %v, want -100", q)
	}
	if q := a.Quantile(1); q != 1000 {
		t.Fatalf("Quantile(1) = %v, want 1000", q)
	}
}
