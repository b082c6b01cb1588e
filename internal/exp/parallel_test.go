package exp

import (
	"strings"
	"testing"
)

// renderAll runs the full quick suite through All at the given worker
// count and returns the result IDs in order plus the concatenated rendered
// output. Table 4 is excluded from the rendered text (its host wall-clock
// latencies legitimately vary run to run) but kept in the ID sequence.
func renderAll(n int) (ids []string, rendered string) {
	SetParallelism(n)
	defer SetParallelism(0)
	var b strings.Builder
	for _, res := range RunSelected(Runners(true)) {
		ids = append(ids, res.ID)
		if res.ID != "table-4" {
			b.WriteString(res.String())
		}
	}
	return ids, b.String()
}

// diffLine reports the first line where two renderings diverge.
func diffLine(t *testing.T, a, b string) string {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			other := "<missing>"
			if i < len(bl) {
				other = bl[i]
			}
			return al[i] + " | " + other
		}
	}
	return "<line counts differ>"
}

// TestAllParallelDeterminism is the harness equivalence guarantee: the
// whole quick suite renders byte-identically at parallelism 1, 2 and 8,
// and All always returns results in paper order regardless of completion
// order.
func TestAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite equivalence in short mode")
	}
	wantIDs := make([]string, 0, len(Runners(true)))
	for _, r := range Runners(true) {
		wantIDs = append(wantIDs, r.ID)
	}
	refIDs, ref := renderAll(1)
	if strings.Join(refIDs, ",") != strings.Join(wantIDs, ",") {
		t.Fatalf("result order at parallelism 1 = %v, want paper order %v", refIDs, wantIDs)
	}
	for _, n := range []int{2, 8} {
		ids, got := renderAll(n)
		if strings.Join(ids, ",") != strings.Join(wantIDs, ",") {
			t.Fatalf("result order at parallelism %d = %v, want paper order %v", n, ids, wantIDs)
		}
		if got != ref {
			t.Fatalf("suite output differs between parallelism 1 and %d; first divergence: %s",
				n, diffLine(t, ref, got))
		}
	}
}

func TestTable5ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("table-5 equivalence in short mode")
	}
	render := func(n int) string {
		SetParallelism(n)
		defer SetParallelism(0)
		return Table5().String()
	}
	ref := render(1)
	for _, n := range []int{2, 8} {
		if got := render(n); got != ref {
			t.Fatalf("table-5 differs between parallelism 1 and %d; first divergence: %s",
				n, diffLine(t, ref, got))
		}
	}
}

func TestFigure13ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-13 equivalence in short mode")
	}
	render := func(n int) string {
		SetParallelism(n)
		defer SetParallelism(0)
		return Figure13(3).String()
	}
	ref := render(1)
	for _, n := range []int{2, 8} {
		if got := render(n); got != ref {
			t.Fatalf("figure-13 differs between parallelism 1 and %d; first divergence: %s",
				n, diffLine(t, ref, got))
		}
	}
}

// TestSetParallelismNormalization: the knob clamps like the CLI flag
// documents — non-positive restores the GOMAXPROCS default.
func TestSetParallelismNormalization(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(-1)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-1), want ≥ 1 (GOMAXPROCS)", got)
	}
}
