package exp

import (
	"time"

	"repro/internal/lease"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// activityDiary rebuilds the paper's §7.2 lease-activity measurements from a
// lease manager's event stream, so the manager keeps none of them: a lease's
// time in Active from its create and transition events, its completed terms
// from its term checks. It keeps one entry for every lease it has heard
// created, dead or alive. Install note as the manager's OnEvent sink before
// the first lease is created.
type activityDiary struct {
	leases map[uint64]*leaseActivity
}

// leaseActivity is one lease's diary entry.
type leaseActivity struct {
	state  lease.State
	since  simclock.Time // when the lease last became Active
	active time.Duration // the closed Active spells' total
	terms  int
}

func newActivityDiary() *activityDiary {
	return &activityDiary{leases: make(map[uint64]*leaseActivity)}
}

// note folds one manager event into the diary.
func (d *activityDiary) note(ev lease.Event) {
	switch ev.Op {
	case lease.EventCreate:
		d.leases[ev.Lease] = &leaseActivity{state: lease.Active, since: ev.At}
	case lease.EventTermCheck:
		d.leases[ev.Lease].terms++
	case lease.EventTransition:
		a := d.leases[ev.Lease]
		if ev.From == lease.Active {
			a.active += ev.At - a.since
		}
		if ev.To == lease.Active {
			a.since = ev.At
		}
		a.state = ev.To
	}
}

// activityReport aggregates lease activity, reproducing the paper's §7.2
// measurements ("160 leases are created. Most leases are short-lived, with
// a median active period of 5 seconds. But the max period is 18 minutes.
// The average number of lease terms are 4, and max 52").
type activityReport struct {
	Created      int
	MedianActive time.Duration
	MaxActive    time.Duration
	MeanTerms    float64
	MaxTerms     int
}

// report computes the activity report at now over every lease the diary
// has heard created; a lease still Active counts its open spell up to now.
func (d *activityDiary) report(now simclock.Time) activityReport {
	rep := activityReport{Created: len(d.leases)}
	if len(d.leases) == 0 {
		return rep
	}
	actives := make([]float64, 0, len(d.leases))
	termSum := 0
	for _, a := range d.leases {
		t := a.active
		if a.state == lease.Active {
			t += now - a.since
		}
		actives = append(actives, float64(t))
		termSum += a.terms
		rep.MaxTerms = max(rep.MaxTerms, a.terms)
	}
	// Median and max are two quantiles of one series: one sort, one pass.
	qs := stats.Percentiles(actives, 50, 100)
	rep.MedianActive = time.Duration(qs[0])
	rep.MaxActive = time.Duration(qs[1])
	rep.MeanTerms = float64(termSum) / float64(len(d.leases))
	return rep
}
