package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/lease"
	"repro/internal/sim"
)

func buildTracedSim(t *testing.T) (*sim.Sim, *recorder) {
	t.Helper()
	s := sim.New(sim.Options{Policy: sim.LeaseOS})
	s.Apps.NewProcess(100)
	wl := s.Power.NewWakelock(100, hooks.Wakelock, "x")
	wl.Acquire()
	r := attachRecorder(s, time.Second, 100)
	s.Leases.OnEvent = r.Note
	s.Run(time.Minute)
	r.Stop()
	return s, r
}

func TestRecorderCapturesAllKinds(t *testing.T) {
	_, r := buildTracedSim(t)
	ops := map[string]int{}
	for i, ev := range r.events {
		ops[ev.Op]++
		if i > 0 && ev.AtNS < r.events[i-1].AtNS {
			t.Fatalf("event %d at %d ns follows one at %d ns", i, ev.AtNS, r.events[i-1].AtNS)
		}
	}
	if ops["power"] != 60 {
		t.Fatalf("power samples = %d, want 60", ops["power"])
	}
	if ops["leases"] != 60 {
		t.Fatalf("lease snapshots = %d, want 60", ops["leases"])
	}
	if ops[lease.EventTransition] == 0 || ops[lease.EventTermCheck] == 0 {
		t.Fatalf("lease events %v, want term checks and transitions (the leak defers at 5 s)", ops)
	}
}

func TestRecorderStopsSampling(t *testing.T) {
	s, r := buildTracedSim(t)
	n := len(r.events)
	s.Run(time.Minute)
	if len(r.events) != n {
		t.Fatal("recorder kept sampling after Stop")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	_, r := buildTracedSim(t)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(r.events) {
		t.Fatalf("lines = %d, events = %d", len(lines), len(r.events))
	}
	var ev traceEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("first line is not valid JSON: %v", err)
	}
	if ev.Op != "power" || ev.AppsMW["uid100"] <= 0 {
		t.Fatalf("first event unexpected: %+v", ev)
	}
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Op != r.events[i].Op || ev.AtNS != r.events[i].AtNS {
			t.Fatalf("line %d %s decodes to %+v (%v), want op %q at %d ns", i, line, ev, err, r.events[i].Op, r.events[i].AtNS)
		}
	}
}

func TestWriteCSVMatrix(t *testing.T) {
	_, r := buildTracedSim(t)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 61 { // header + 60 samples
		t.Fatalf("rows = %d, want 61", len(rows))
	}
	if rows[0][0] != "at_ms" || rows[0][1] != "total_mw" || rows[0][2] != "uid100" {
		t.Fatalf("header = %v", rows[0])
	}
	// The deferral at 5 s must be visible as the uid's draw dropping to 0.
	sawPositive, sawZero := false, false
	for _, row := range rows[1:] {
		switch row[2] {
		case "0.000":
			sawZero = true
		default:
			sawPositive = true
		}
	}
	if !sawPositive || !sawZero {
		t.Fatal("trace should show the draw both before and during the deferral")
	}
}

func TestAttachDefaults(t *testing.T) {
	s := sim.New(sim.Options{Policy: sim.Vanilla})
	r := attachRecorder(s, 0) // default interval, no tracked uids, no lease manager
	s.Run(5 * time.Second)
	r.Stop()
	if len(r.events) != 5 {
		t.Fatalf("events = %d, want 5 power samples", len(r.events))
	}
	for _, ev := range r.events {
		if ev.Op != "power" {
			t.Fatalf("vanilla trace should be power-only, got %q", ev.Op)
		}
	}
}
