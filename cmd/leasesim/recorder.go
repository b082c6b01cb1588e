package main

// A recorder keeps a run's event trace for external analysis (`leasesim run
// -trace` / `-trace-csv`): periodic power samples per app, lease-population
// snapshots, and every lease event. Traces serialise as JSON lines (one
// record per line, each named by its "op") or as a CSV power matrix.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
)

// traceEvent is one trace record: a sample, or a lease event's line.
type traceEvent struct {
	// AtNS is the virtual timestamp in nanoseconds, as a lease line's.
	AtNS int64 `json:"at_ns"`
	// Op is "power" or "leases" for a sample.
	Op string `json:"op"`

	// power: total system draw and per-app draws in milliwatts.
	TotalMW float64            `json:"total_mw,omitempty"`
	AppsMW  map[string]float64 `json:"apps_mw,omitempty"`

	// leases: population snapshot.
	LeasesLive   int `json:"leases_live,omitempty"`
	LeasesActive int `json:"leases_active,omitempty"`

	line []byte // a lease event's line, as lease.AppendEventLine writes it, and a newline
}

// recorder samples a simulation while it runs.
type recorder struct {
	s      *sim.Sim
	uids   []power.UID
	events []traceEvent
	stop   func()
}

// attachRecorder starts recording on s: a power and lease snapshot every
// interval, and each lease event the lease manager's sink passes to Note.
// uids selects the apps whose draw is broken out per sample.
func attachRecorder(s *sim.Sim, interval time.Duration, uids ...power.UID) *recorder {
	if interval <= 0 {
		interval = time.Second
	}
	r := &recorder{s: s, uids: uids}
	r.stop = s.Engine.Ticker(interval, r.sample)
	return r
}

// Note records ev if the recorder is running; a nil recorder records
// nothing.
func (r *recorder) Note(ev lease.Event) {
	if r == nil || r.stop == nil {
		return
	}
	r.events = append(r.events, traceEvent{AtNS: int64(ev.At), Op: ev.Op, line: append(lease.AppendEventLine(nil, ev), '\n')})
}

func (r *recorder) sample() {
	now := int64(r.s.Engine.Now())
	apps := make(map[string]float64, len(r.uids))
	for _, uid := range r.uids {
		apps[fmt.Sprintf("uid%d", uid)] = r.s.Meter.InstantPowerOfW(uid) * 1000
	}
	r.events = append(r.events, traceEvent{
		AtNS: now, Op: "power",
		TotalMW: r.s.Meter.InstantPowerW() * 1000, AppsMW: apps,
	})
	if r.s.Leases != nil {
		r.events = append(r.events, traceEvent{
			AtNS: now, Op: "leases",
			LeasesLive: r.s.Leases.LeaseCount(), LeasesActive: r.s.Leases.ActiveLeaseCount(),
		})
	}
}

// Stop halts sampling and event recording; events stay available.
func (r *recorder) Stop() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
}

// WriteJSON writes the trace as JSON lines.
func (r *recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.events {
		var err error
		if ev.line != nil {
			_, err = w.Write(ev.line)
		} else {
			err = enc.Encode(ev)
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// WriteCSV writes the power samples as a CSV matrix: at_ms, total_mw, then
// one column per tracked uid (sorted by uid label).
func (r *recorder) WriteCSV(w io.Writer) error {
	var cols []string
	for _, uid := range r.uids {
		cols = append(cols, fmt.Sprintf("uid%d", uid))
	}
	slices.Sort(cols)
	rows := [][]string{append([]string{"at_ms", "total_mw"}, slices.Compact(cols)...)}
	for _, ev := range r.events {
		if ev.Op != "power" {
			continue
		}
		row := []string{strconv.FormatInt(time.Duration(ev.AtNS).Milliseconds(), 10), strconv.FormatFloat(ev.TotalMW, 'f', 3, 64)}
		for _, c := range rows[0][2:] {
			row = append(row, strconv.FormatFloat(ev.AppsMW[c], 'f', 3, 64))
		}
		rows = append(rows, row)
	}
	if err := csv.NewWriter(w).WriteAll(rows); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
