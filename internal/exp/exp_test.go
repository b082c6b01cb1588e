package exp

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/stats"
)

// field extracts the idx-th whitespace field of the last line containing
// substr, as a float.
func field(t *testing.T, r Result, substr string, idx int) float64 {
	t.Helper()
	var line string
	for _, l := range r.Lines {
		if strings.Contains(l, substr) {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("%s: no line containing %q in %v", r.ID, substr, r.Lines)
	}
	fields := strings.Fields(line)
	if idx >= len(fields) {
		t.Fatalf("%s: line %q has %d fields, want index %d", r.ID, line, len(fields), idx)
	}
	v, err := strconv.ParseFloat(strings.Trim(fields[idx], "%,"), 64)
	if err != nil {
		t.Fatalf("%s: field %q is not a number: %v", r.ID, fields[idx], err)
	}
	return v
}

func TestFigure1Shape(t *testing.T) {
	r := Figure1()
	// Mean try duration tens of seconds per minute; zero successes.
	mean := field(t, r, "mean try duration", 3)
	if mean < 20 || mean > 60 {
		t.Fatalf("mean try duration = %v s/min, want 20..60", mean)
	}
	if got := field(t, r, "successful weather updates", 3); got != 0 {
		t.Fatalf("weather updates = %v, want 0", got)
	}
}

func TestFigure2UltralowUtilization(t *testing.T) {
	r := Figure2()
	util := field(t, r, "utilization ratio", 2)
	if util >= 0.05 {
		t.Fatalf("utilization = %v, want ultralow (< LHB threshold 0.05)", util)
	}
}

func TestFigure3CrossDeviceConsistency(t *testing.T) {
	r := Figure3()
	if len(r.Lines) < 3 {
		t.Fatalf("lines = %v", r.Lines)
	}
	for _, l := range r.Lines[:2] {
		if !strings.Contains(l, "CPU/WL ratio 0.0") {
			t.Fatalf("expected ultralow ratio on both phones: %q", l)
		}
	}
}

func TestFigure4HighUtilization(t *testing.T) {
	r := Figure4()
	util := field(t, r, "utilization ratio", 2)
	if util < 0.8 {
		t.Fatalf("utilization = %v, want near 1 (busy useless loop)", util)
	}
	if exc := field(t, r, "exceptions thrown", 2); exc < 1000 {
		t.Fatalf("exceptions = %v, want a storm", exc)
	}
}

func TestTable1RowsComplete(t *testing.T) {
	r := Table1()
	if len(r.Lines) != 7 { // header + 6 resources
		t.Fatalf("lines = %d, want 7", len(r.Lines))
	}
	// Only the GPS row may carry a FAB check mark (paper Table 1).
	for _, l := range r.Lines[1:] {
		fields := strings.Fields(l)
		fabMark := fields[len(fields)-5]
		if isGPS := strings.HasPrefix(l, "GPS"); isGPS != (fabMark != "x") {
			t.Fatalf("FAB mark %q wrong for row %q", fabMark, l)
		}
	}
}

func TestTable2MatchesPaperTotals(t *testing.T) {
	r := Table2()
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"FAB", "LHB", "LUB", "EUB", "58%", "31%"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("table 2 output missing %q:\n%s", want, joined)
		}
	}
}

func TestFigure5OnlyLegalEdges(t *testing.T) {
	r := Figure5()
	legal := []string{
		"ACTIVE -> DEFERRED", "DEFERRED -> ACTIVE", "ACTIVE -> INACTIVE",
		"INACTIVE -> ACTIVE", "ACTIVE -> DEAD", "INACTIVE -> DEAD",
		"DEFERRED -> INACTIVE", "DEFERRED -> DEAD",
	}
	for _, l := range r.Lines {
		if !strings.Contains(l, "->") || strings.Contains(l, "edges observed") {
			continue
		}
		ok := false
		for _, e := range legal {
			if strings.Contains(l, e) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("illegal edge in output: %q", l)
		}
	}
	// The scenario must visit the four core edges.
	joined := strings.Join(r.Lines, "\n")
	for _, e := range legal[:4] {
		if !strings.Contains(joined, e) {
			t.Fatalf("edge %q not exercised", e)
		}
	}
}

func TestFigure9MatchesAnalysis(t *testing.T) {
	r := Figure9()
	// (a) r = 1/(1+λ): 900, 1200, ~1543-1560, 1800.
	wantA := []float64{900, 1200, 1560, 1800}
	for i, l := range r.Lines[1:5] {
		got := field(t, Result{ID: r.ID, Lines: []string{l}}, "term", 3)
		if diff := got - wantA[i]; diff < -60 || diff > 60 {
			t.Fatalf("(a) row %d = %v, want ≈ %v", i, got, wantA[i])
		}
	}
	// (b) fixed λ=1: ~900 for every finite term.
	for i, l := range r.Lines[6:9] {
		got := field(t, Result{ID: r.ID, Lines: []string{l}}, "term", 3)
		if got < 850 || got > 950 {
			t.Fatalf("(b) row %d = %v, want ≈ 900", i, got)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	r := Table4()
	if len(r.Lines) != 2 {
		t.Fatalf("lines = %v", r.Lines)
	}
	// One field per op. They are host-clock timings, so nothing here
	// compares them (DESIGN.md §18: timing is not a test).
	fields := strings.Fields(r.Lines[1])
	if len(fields) != 4 {
		t.Fatalf("row = %q", r.Lines[1])
	}
}

func TestFigure11SeriesShape(t *testing.T) {
	r := Figure11()
	if len(r.Lines) < 100 {
		t.Fatalf("series too short: %d lines", len(r.Lines))
	}
	created := field(t, r, "leases created", 2)
	if created < 20 {
		t.Fatalf("created = %v, want a busy hour", created)
	}
	peak := field(t, r, "peak concurrent", 6)
	if peak < 3 || peak > 40 {
		t.Fatalf("peak = %v, want moderate", peak)
	}
}

func TestTable5HeadlineOrdering(t *testing.T) {
	r := Table5()
	// The three reduction percentages are the last three fields of a row.
	tail := func(line string, fromEnd int) float64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(strings.Trim(fields[len(fields)-fromEnd], "%,"), 64)
		if err != nil {
			t.Fatalf("cannot parse %q in %q: %v", fields[len(fields)-fromEnd], line, err)
		}
		return v
	}
	var avgLine string
	for _, l := range r.Lines {
		if strings.Contains(l, "Average") {
			avgLine = l
		}
	}
	leaseAvg, dozeAvg, defAvg := tail(avgLine, 3), tail(avgLine, 2), tail(avgLine, 1)
	if leaseAvg < 85 {
		t.Fatalf("LeaseOS average = %v%%, want ≥ 85 (paper 92.6)", leaseAvg)
	}
	if leaseAvg <= dozeAvg || leaseAvg <= defAvg {
		t.Fatalf("LeaseOS (%v) must beat Doze* (%v) and DefDroid (%v)", leaseAvg, dozeAvg, defAvg)
	}
	// Doze never defers the screen: both screen rows must show ~0% for it.
	screenRows := 0
	for _, l := range r.Lines {
		if strings.Contains(l, " screen ") {
			screenRows++
			if v := tail(l, 2); v > 5 {
				t.Fatalf("Doze should not reduce a screen defect, got %v%% in %q", v, l)
			}
		}
	}
	if screenRows != 2 {
		t.Fatalf("screen rows = %d, want 2", screenRows)
	}
}

func TestUsabilityDisruptionPattern(t *testing.T) {
	r := Usability()
	for _, l := range r.Lines[1:] {
		fields := strings.Fields(l)
		// ... | <lease metric> no | <throttle metric> YES
		if fields[len(fields)-1] != "YES" {
			t.Fatalf("throttling should disrupt: %q", l)
		}
		if fields[len(fields)-4] != "no" {
			t.Fatalf("LeaseOS should not disrupt: %q", l)
		}
	}
}

func TestFigure12Monotone(t *testing.T) {
	r := Figure12(5)
	prev := 0.0
	rows := 0
	for _, l := range r.Lines[1:] {
		fields := strings.Fields(l)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		rows++
		if v < prev {
			t.Fatalf("reduction not monotone in λ: %v after %v", v, prev)
		}
		if v < 0.3 || v > 0.95 {
			t.Fatalf("reduction %v out of plausible band", v)
		}
		prev = v
	}
	if rows != 5 {
		t.Fatalf("rows = %d, want 5", rows)
	}
}

func TestFigure13OverheadUnderOnePercent(t *testing.T) {
	r := Figure13(2)
	rows := 0
	for _, l := range r.Lines[1:] {
		idx := strings.LastIndex(l, "|")
		if idx < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(l[idx+1:]), "%"), 64)
		if err != nil {
			continue
		}
		rows++
		if v >= 1.0 {
			t.Fatalf("overhead %v%% ≥ 1%% in %q", v, l)
		}
		if v < 0 {
			t.Fatalf("negative overhead in %q", l)
		}
	}
	if rows != 5 {
		t.Fatalf("rows = %d, want 5", rows)
	}
}

func TestFigure14LeaseAddsMilliseconds(t *testing.T) {
	r := Figure14()
	for _, l := range r.Lines[1:] {
		if !strings.Contains(l, "ms") {
			continue
		}
		idx := strings.LastIndex(l, "|")
		delta, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(l[idx+1:], " +")), " ms"), 64)
		if err != nil {
			t.Fatalf("cannot parse delta in %q: %v", l, err)
		}
		if delta < 0 || delta > 20 {
			t.Fatalf("delta = %v ms, want small positive", delta)
		}
	}
}

func TestBatteryLifeExtension(t *testing.T) {
	r := BatteryLife()
	ext := field(t, r, "extension", 2)
	if ext < 10 || ext > 60 {
		t.Fatalf("extension = %v%%, want the 10–60%% band (paper +25%%)", ext)
	}
}

func TestRunnersAllProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	for _, runner := range Runners(true) {
		runner := runner
		t.Run(runner.ID, func(t *testing.T) {
			r := runner.Run()
			if r.ID != runner.ID {
				t.Fatalf("runner %s produced result id %s", runner.ID, r.ID)
			}
			if len(r.Lines) == 0 {
				t.Fatal("no output lines")
			}
			if r.String() == "" {
				t.Fatal("empty String()")
			}
		})
	}
}

func TestDetectionLatencyOrdering(t *testing.T) {
	r := DetectionLatency()
	get := func(policy string) (float64, bool) {
		for _, l := range r.Lines {
			if strings.HasPrefix(l, policy) {
				if strings.Contains(l, "never revoked") {
					return 0, false
				}
				return field(t, Result{Lines: []string{l}}, policy, 3), true
			}
		}
		t.Fatalf("no line for %s", policy)
		return 0, false
	}
	if _, ok := get("vanilla"); ok {
		t.Fatal("vanilla must never revoke")
	}
	leaseD, ok := get("leaseos")
	if !ok || leaseD > 10 {
		t.Fatalf("LeaseOS detection = %v s, want ≤ 10 (one term + probe)", leaseD)
	}
	defD, ok := get("defdroid")
	if !ok || defD < 200 {
		t.Fatalf("DefDroid detection = %v s, want its 5-minute hold limit", defD)
	}
	thrD, ok := get("throttle")
	if !ok || thrD < 55 || thrD > 70 {
		t.Fatalf("throttle detection = %v s, want ~60", thrD)
	}
}

func TestWindowSweepTradeoff(t *testing.T) {
	r := WindowSweep()
	// Detection latency grows linearly with the window; misjudgements of
	// the alternating app vanish for windows ≥ 2.
	d1 := field(t, Result{Lines: []string{r.Lines[1]}}, "1", 1)
	d4 := field(t, Result{Lines: []string{r.Lines[4]}}, "4", 1)
	if d4 <= d1 {
		t.Fatalf("detection latency should grow with the window: %v vs %v", d1, d4)
	}
	m1 := field(t, Result{Lines: []string{r.Lines[1]}}, "1", 3)
	m2 := field(t, Result{Lines: []string{r.Lines[2]}}, "2", 3)
	if m1 == 0 {
		t.Fatal("window 1 should misjudge the alternating app")
	}
	if m2 != 0 {
		t.Fatalf("window 2 should eliminate misjudgements, got %v", m2)
	}
}

func TestFixedAppsComparison(t *testing.T) {
	r := FixedApps()
	for _, l := range r.Lines[1:] {
		fields := strings.Fields(l)
		// name | buggyVanilla mW buggyLease mW fixedVanilla mW
		parse := func(i int) float64 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				t.Fatalf("bad field %q in %q", fields[i], l)
			}
			return v
		}
		buggyVanilla := parse(2)
		buggyLease := parse(4)
		fixedVanilla := parse(6)
		if buggyLease >= buggyVanilla*0.5 {
			t.Fatalf("LeaseOS did not help the buggy app: %q", l)
		}
		if fixedVanilla >= buggyVanilla*0.5 {
			t.Fatalf("the fixed app should be far cheaper than the buggy one: %q", l)
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := Result{ID: "x", Title: "T", Lines: []string{"row 1", "row 2"}, Notes: []string{"n"}}
	text := r.String()
	if !strings.Contains(text, "== x: T ==") || !strings.Contains(text, "row 1") || !strings.Contains(text, "note: n") {
		t.Fatalf("text rendering wrong:\n%s", text)
	}
}

// TestSuiteDeterminism: the whole quick suite renders identically across
// two runs — any hidden map-ordering or real-clock dependency fails here.
// (Table 4 measures host wall-clock and is excluded by construction: its
// numbers vary, so compare everything but its rows.)
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("suite determinism in short mode")
	}
	snapshot := func() string {
		var b strings.Builder
		for _, runner := range Runners(true) {
			if runner.ID == "table-4" {
				continue // real wall-clock latencies legitimately vary
			}
			b.WriteString(runner.Run().String())
		}
		return b.String()
	}
	if snapshot() != snapshot() {
		t.Fatal("experiment suite is not deterministic")
	}
}

func TestCrossDeviceConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-device sweep in short mode")
	}
	r := CrossDevice()
	if len(r.Lines) != 7 { // header + 6 devices
		t.Fatalf("lines = %d", len(r.Lines))
	}
	for _, l := range r.Lines[1:] {
		fields := strings.Fields(l)
		parse := func(fromEnd int) float64 {
			v, err := strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-fromEnd], "%"), 64)
			if err != nil {
				t.Fatalf("bad field in %q: %v", l, err)
			}
			return v
		}
		leaseR, dozeR, defR := parse(3), parse(2), parse(1)
		if leaseR < 85 || leaseR <= dozeR || leaseR <= defR {
			t.Fatalf("ordering violated on %q", l)
		}
	}
}

// TestTable5CalibrationRankCorrelation documents the calibration quality of
// the app models: the measured vanilla power of the 20 apps must rank-order
// like the paper's Table 5 vanilla column (high Spearman correlation), even
// though absolute milliwatts differ.
func TestTable5CalibrationRankCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in short mode")
	}
	var paperMW, measuredMW []float64
	for _, sp := range apps.Table5Specs() {
		row := RunTable5Row(sp)
		paperMW = append(paperMW, sp.PaperMW[0])
		measuredMW = append(measuredMW, row[sim.Vanilla])
	}
	rho := stats.Spearman(paperMW, measuredMW)
	if rho < 0.8 {
		t.Fatalf("vanilla-power rank correlation with the paper = %.2f, want ≥ 0.8", rho)
	}
	t.Logf("Spearman rank correlation with paper Table 5 vanilla column: %.3f", rho)
}
