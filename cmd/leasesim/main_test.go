package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = leasesim(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// The run goldens were printed by the simulator before its commands were
// merged (leasesim -scenario … and leasesim -app Torch -duration 10m).
func TestRunMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/run_scenario_outage.golden", []string{"run", "-scenario", "../../examples/scenarios/outage.json"}},
		{"testdata/run_torch_10m.golden", []string{"run", "-app", "Torch", "-duration", "10m"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		code, got, stderr := invoke(tc.args...)
		if code != 0 || got != string(want) {
			t.Errorf("leasesim %s: exit %d, stderr %q\ngot:\n%s\nwant:\n%s",
				strings.Join(tc.args, " "), code, stderr, got, want)
		}
	}
}

func TestTraceStudyPrintsEveryCase(t *testing.T) {
	code, out, stderr := invoke("trace", "-kind", "study")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "id,app,source,behavior,root_cause" || len(lines)-1 != 109 {
		t.Fatalf("header %q and %d rows, want Table 2's 109", lines[0], len(lines)-1)
	}
}

// A mistyped command line fails before anything is simulated: nothing
// reaches stdout.
func TestBadInvocationsFailFirst(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"experiments", "-only", "table-5,nosuch"}, 1, "unknown ids nosuch; known ids:\n  figure-1\n"},
		{[]string{"nosuch"}, 2, `unknown command "nosuch"`},
		{[]string{"-app", "Torch"}, 2, "usage: leasesim <command>"},
		{nil, 2, "usage: leasesim <command>"},
		{[]string{"run", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"run", "-app", "nosuch"}, 1, `unknown Table 5 app "nosuch"`},
		{[]string{"fleet", "-devices", "0"}, 1, "-devices must be positive"},
		{[]string{"trace", "-kind", "nosuch"}, 1, `unknown kind "nosuch"`},
		{[]string{"trace", "-kind", "slices", "-n", "-1"}, 1, "-n must not be negative"},
		{[]string{"trace", "-max", "0"}, 1, "-max must be positive"},
		{[]string{"run", "-app", "Torch", "-duration", "-5m"}, 1, "-duration must be positive"},
		{[]string{"fleet", "-window", "-5m"}, 1, "-window must be positive"},
		{[]string{"run", "-scenario", "F", "-trace", "T"}, 1, "-trace does not apply to a -scenario run"},
		{[]string{"run", "-scenario", "F", "-trace-csv", "T"}, 1, "-trace-csv does not apply to a -scenario run"},
		{[]string{"run", "-scenario", "F", "-explain"}, 1, "-explain does not apply to a -scenario run"},
	} {
		code, out, stderr := invoke(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("leasesim %q: exit %d (want %d), stdout %q, stderr %q (want it to contain %q)",
				tc.args, code, tc.code, out, stderr, tc.stderr)
		}
	}
}

// Each command takes exactly these flags, with these defaults.
func TestCommandsKeepTheirFlags(t *testing.T) {
	want := map[string]map[string]string{
		"run": {"app": "Torch", "policy": "leaseos", "duration": "30m0s", "device": "Google Pixel XL",
			"scenario": "", "trace": "", "trace-csv": "", "explain": "false", "list": "false"},
		"experiments": {"quick": "false", "only": "", "parallel": "0", "cpuprofile": "", "memprofile": ""},
		"fleet":       {"devices": "20000", "seed": "1", "window": "30m0s", "parallelism": "0", "check": "false"},
		"trace":       {"kind": "slices", "seed": "1", "n": "20", "max": "10m0s"},
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.define(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !maps.Equal(got, want[c.name]) {
			t.Errorf("%s flags = %v, want %v", c.name, got, want[c.name])
		}
	}
	if len(commands) != len(want) {
		t.Errorf("%d commands, want %d", len(commands), len(want))
	}
}

// TestRunTraceMatchesGolden: `run -trace` writes each lease event as its
// lease.AppendEventLine line, one for each of Table 5's three defect
// classes. The goldens hold the trace's lease lines, without its samples:
// leasesim run -app A -duration 5m -trace F; grep -v '"op":"power"\|"op":"leases"' F
func TestRunTraceMatchesGolden(t *testing.T) {
	for app, golden := range map[string]string{
		"Torch":         "testdata/trace_torch_5m.golden",         // LHB
		"BetterWeather": "testdata/trace_betterweather_5m.golden", // FAB
		"K-9":           "testdata/trace_k9_5m.golden",            // LUB
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if code, _, stderr := invoke("run", "-app", app, "-duration", "5m", "-trace", path); code != 0 {
			t.Fatalf("run -app %s: exit %d, stderr %q", app, code, stderr)
		}
		trace, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(string(trace), "\n") {
			var rec struct{ Op string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Op != "power" && rec.Op != "leases" {
				got.WriteString(line)
			}
		}
		if got.String() != string(want) {
			t.Errorf("run -app %s -trace: lease lines\n%s\nwant (%s):\n%s", app, got.String(), golden, want)
		}
	}
}
