package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of single element should be 0")
	}
	if StdDev(nil) != 0 {
		t.Error("StdDev of nil should be 0")
	}
}

func TestStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	want := StdDev(xs) / math.Sqrt(5)
	if got := StdErr(xs); !almostEqual(got, want) {
		t.Errorf("StdErr = %v, want %v", got, want)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice aggregates should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-10, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); !almostEqual(got, 1.5) {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	if Percentile([]float64{9}, 75) != 9 {
		t.Error("single-element percentile should be that element")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	xs := []float64{9, 2, 7, 4, 1, 8, 3}
	ps := []float64{0, 10, 25, 50, 75, 90, 100, -5, 120}
	got := Percentiles(xs, ps...)
	if len(got) != len(ps) {
		t.Fatalf("len = %d, want %d", len(got), len(ps))
	}
	for i, p := range ps {
		if want := Percentile(xs, p); !almostEqual(got[i], want) {
			t.Errorf("Percentiles(...)[%d] (p=%v) = %v, want %v", i, p, got[i], want)
		}
	}
	// Order of results follows the order asked, not sorted order.
	rev := Percentiles(xs, 100, 0)
	if !almostEqual(rev[0], 9) || !almostEqual(rev[1], 1) {
		t.Errorf("Percentiles(xs, 100, 0) = %v, want [9 1]", rev)
	}
}

func TestPercentilesEmptyAndImmutability(t *testing.T) {
	if got := Percentiles(nil, 25, 50, 75); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("Percentiles(nil, ...) = %v, want zeros", got)
	}
	if got := Percentiles([]float64{1, 2, 3}); len(got) != 0 {
		t.Errorf("Percentiles with no ps = %v, want empty", got)
	}
	xs := []float64{3, 1, 2}
	Percentiles(xs, 50, 90)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); !almostEqual(got, 3) {
		t.Errorf("Median = %v, want 3", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almostEqual(s.Mean, 2) || !almostEqual(s.Min, 1) || !almostEqual(s.Max, 3) {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String is empty")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if !almostEqual(Ratio(1, 4), 0.25) {
		t.Error("Ratio(1,4) != 0.25")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Property: mean is bounded by min and max; stddev is non-negative;
// percentiles are monotone in p.
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.StdDev < 0 || s.StdErr < 0 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); !almostEqual(got, 1) {
		t.Fatalf("perfect positive = %v", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); !almostEqual(got, -1) {
		t.Fatalf("perfect negative = %v", got)
	}
	if Pearson([]float64{1, 2}, []float64{5, 5}) != 0 {
		t.Fatal("zero variance should be 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single pair should be 0")
	}
	if Pearson([]float64{1, 2}, []float64{1, 2, 3}) != 0 {
		t.Fatal("mismatched lengths should be 0")
	}
}

func TestSpearman(t *testing.T) {
	// Monotone but non-linear: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25}
	if got := Spearman(xs, ys); !almostEqual(got, 1) {
		t.Fatalf("monotone Spearman = %v, want 1", got)
	}
	if got := Pearson(xs, ys); got >= 1 {
		t.Fatalf("Pearson should be < 1 for non-linear: %v", got)
	}
	// Ties share ranks without breaking the computation.
	if got := Spearman([]float64{1, 1, 2}, []float64{3, 3, 4}); !almostEqual(got, 1) {
		t.Fatalf("tied Spearman = %v", got)
	}
}
