package main

// A recorder keeps a run's event trace for external analysis (`leasesim run
// -trace` / `-trace-csv`): periodic power samples per app, lease-population
// snapshots, and the full lease transition log. Traces serialise as JSON
// lines (one event per line) or as a CSV power matrix.

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

// traceEvent is one trace record. Exactly one of the payload groups is set,
// selected by Kind.
type traceEvent struct {
	// AtMS is the virtual timestamp in milliseconds.
	AtMS int64 `json:"at_ms"`
	// Kind is "power", "leases" or "transition".
	Kind string `json:"kind"`

	// power: total system draw and per-app draws in milliwatts.
	TotalMW float64            `json:"total_mw,omitempty"`
	AppsMW  map[string]float64 `json:"apps_mw,omitempty"`

	// leases: population snapshot.
	LeasesLive   int `json:"leases_live,omitempty"`
	LeasesActive int `json:"leases_active,omitempty"`

	// transition: one lease state change.
	LeaseID uint64 `json:"lease_id,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// recorder samples a simulation while it runs.
type recorder struct {
	s      *sim.Sim
	uids   []power.UID
	events []traceEvent
	stop   func()
}

// attachRecorder starts recording on s: a power and lease snapshot every
// interval, and each lease transition as it fires. It installs Note as the
// lease manager's sink; a caller with its own sink calls Note from it
// instead. uids selects the apps whose draw is broken out per sample.
func attachRecorder(s *sim.Sim, interval time.Duration, uids ...power.UID) *recorder {
	if interval <= 0 {
		interval = time.Second
	}
	r := &recorder{s: s, uids: uids}
	r.stop = s.Engine.Ticker(interval, r.sample)
	if s.Leases != nil {
		s.Leases.OnEvent = r.Note
	}
	return r
}

// Note records ev if it is a lease transition and the recorder is running;
// a nil recorder records nothing.
func (r *recorder) Note(ev lease.Event) {
	if r == nil || r.stop == nil || ev.Op != lease.EventTransition {
		return
	}
	r.events = append(r.events, traceEvent{
		AtMS: ev.At.Milliseconds(), Kind: "transition",
		LeaseID: ev.Lease, From: ev.From.String(), To: ev.To.String(), Reason: ev.Reason,
	})
}

func (r *recorder) sample() {
	now := r.s.Engine.Now().Milliseconds()
	apps := make(map[string]float64, len(r.uids))
	for _, uid := range r.uids {
		apps[fmt.Sprintf("uid%d", uid)] = r.s.Meter.InstantPowerOfW(uid) * 1000
	}
	r.events = append(r.events, traceEvent{
		AtMS: now, Kind: "power",
		TotalMW: r.s.Meter.InstantPowerW() * 1000, AppsMW: apps,
	})
	if r.s.Leases != nil {
		r.events = append(r.events, traceEvent{
			AtMS: now, Kind: "leases",
			LeasesLive: r.s.Leases.LeaseCount(), LeasesActive: r.s.Leases.ActiveLeaseCount(),
		})
	}
}

// Stop halts sampling and transition recording; events stay available.
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
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// WriteCSV writes the power samples as a CSV matrix: at_ms, total_mw, then
// one column per tracked uid (sorted by uid label).
func (r *recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()

	var cols []string
	for _, uid := range r.uids {
		cols = append(cols, fmt.Sprintf("uid%d", uid))
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)

	header := append([]string{"at_ms", "total_mw"}, cols...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, ev := range r.events {
		if ev.Kind != "power" {
			continue
		}
		row := []string{
			strconv.FormatInt(ev.AtMS, 10),
			strconv.FormatFloat(ev.TotalMW, 'f', 3, 64),
		}
		for _, c := range cols {
			row = append(row, strconv.FormatFloat(ev.AppsMW[c], 'f', 3, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return cw.Error()
}
