package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

const sample = `{
  "device":   "Google Pixel XL",
  "policy":   "leaseos",
  "duration": "20m",
  "apps": [
    {"name": "K-9", "uid": 100},
    {"name": "runkeeper", "uid": 101}
  ],
  "env": [
    {"at": "0s",  "motion_mps": 2.5, "gps": "good"},
    {"at": "5m",  "network": "down"},
    {"at": "15m", "network": "wifi"}
  ]
}`

func TestParseValid(t *testing.T) {
	sc, err := parseScenario(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Policy != "leaseos" || len(sc.Apps) != 2 || len(sc.Env) != 3 {
		t.Fatalf("parsed = %+v", sc)
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := parseScenario(strings.NewReader(`{"apps":[{"name":"Torch","uid":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Duration != "30m" || sc.Policy != "leaseos" || sc.Device == "" {
		t.Fatalf("defaults = %+v", sc)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	bad := []string{
		`{`,                                   // malformed
		`{"apps":[]}`,                         // no apps
		`{"apps":[{"name":"Nope","uid":1}]}`,  // unknown app
		`{"apps":[{"name":"Torch","uid":0}]}`, // bad uid
		`{"apps":[{"name":"Torch","uid":1},{"name":"K-9","uid":1}]}`,               // dup uid
		`{"apps":[{"name":"Torch","uid":1}],"policy":"magic"}`,                     // bad policy
		`{"apps":[{"name":"Torch","uid":1}],"device":"iPhone"}`,                    // bad device
		`{"apps":[{"name":"Torch","uid":1}],"duration":"-5m"}`,                     // bad duration
		`{"apps":[{"name":"Torch","uid":1}],"env":[{"at":"xx"}]}`,                  // bad at
		`{"apps":[{"name":"Torch","uid":1}],"env":[{"at":"1s","gps":"sideways"}]}`, // bad gps
		`{"apps":[{"name":"Torch","uid":1}],"bogus":true}`,                         // unknown field
	}
	for _, in := range bad {
		if _, err := parseScenario(strings.NewReader(in)); err == nil {
			t.Fatalf("parseScenario accepted %q", in)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	sc, err := parseScenario(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if sc.length != 20*time.Minute {
		t.Fatalf("duration = %v", sc.length)
	}
	s, installed := sc.run()
	if len(installed) != 2 {
		t.Fatalf("apps = %+v", installed)
	}
	// The tracker keeps working under LeaseOS: meaningful energy.
	if k9, tracker := s.Meter.EnergyOfJ(100), s.Meter.EnergyOfJ(101); tracker <= 0 || k9 <= 0 {
		t.Fatalf("zero energies: K-9 %v J, tracker %v J", k9, tracker)
	}
	// The outage (5–15 min) triggers K-9's defect; LeaseOS defers it.
	if s.Leases.Deferrals == 0 {
		t.Fatal("the scripted outage should have produced a deferral")
	}
}

func TestRunAppliesEnvTimeline(t *testing.T) {
	in := `{
	  "duration": "2m",
	  "apps": [{"name": "Torch", "uid": 1}],
	  "env": [
	    {"at": "0s", "user": "present"},
	    {"at": "1m", "user": "away", "network": "cellular", "server": "bad",
	     "gps": "none", "motion_mps": -1}
	  ]
	}`
	sc, err := parseScenario(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sc.run()
	w := s.World
	if w.NetworkOnWiFi() || w.ServerHealthy() || w.Moving() || w.UserPresent() {
		t.Fatal("final env state not applied")
	}
	if s.Power.ScreenOn() {
		t.Fatal("user away should turn the screen off")
	}
}

func TestFixedAppNamesResolve(t *testing.T) {
	for _, name := range []string{"K-9 (fixed)", "Kontalk (fixed)", "BetterWeather (fixed)", "spotify", "haven"} {
		in := `{"apps":[{"name":"` + name + `","uid":7}],"duration":"1m"}`
		sc, err := parseScenario(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, installed := sc.run(); len(installed) != 1 {
			t.Fatalf("%s: apps = %+v", name, installed)
		}
	}
}

// TestListNamesEveryApp: run -list's line of apps besides Table 5's names
// every app run -app knows by name there, and only those.
func TestListNamesEveryApp(t *testing.T) {
	var out bytes.Buffer
	printList(&out)
	var listed []string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "other apps: "); ok {
			listed = strings.Split(rest, ", ")
		}
	}
	for _, name := range listed {
		if _, err := lookupApp(name); err != nil {
			t.Errorf("run -list names %q, which run -app refuses: %v", name, err)
		}
	}
	for name := range extraApps {
		if !slices.Contains(listed, name) {
			t.Errorf("run -app knows %q, which run -list does not name (it lists %q)", name, listed)
		}
	}
}

func TestShippedScenarioFilesParse(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped scenario files found: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseScenario(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}
