// Customutility reproduces the paper's Figure 6: the TapAndTurn screen-
// rotation helper registers a custom utility counter (clicks over icon
// occurrences) so the lease manager can judge its orientation-sensor stream
// by what the user actually does with it.
package main

import (
	"fmt"
	"time"

	leaseos "repro"
	"repro/internal/apps"
	"repro/internal/lease"
)

func run(withCounter bool, clicky bool) {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})

	lastScore, lubTerms := 0.0, 0
	s.Leases.OnEvent = func(ev lease.Event) {
		if ev.Op == lease.EventTermCheck {
			lastScore = ev.Term.UtilityScore
			if ev.Term.Behavior == leaseos.LUB {
				lubTerms++
			}
		}
	}
	const uid leaseos.UID = 100
	app := apps.NewTapAndTurn(s, uid)
	app.Start()

	if withCounter {
		// The Figure 6 ClickUtility: 100 × clicks / icon occurrences.
		s.Leases.SetUtility(uid, leaseos.SensorListener, app.ClickUtility())
	}

	// The device rotates now and then while the user reads; the icon
	// appears each time. A "clicky" user actually uses it.
	stop := s.Engine.Ticker(20*time.Second, func() {
		app.RecordRotation(clicky)
	})
	defer stop()

	s.Run(30 * time.Minute)

	energy := s.Meter.EnergyOfJ(uid)
	fmt.Printf("  custom counter %-5v | user clicks %-5v | energy %5.2f J | "+
		"last utility %3.0f | LUB terms %d\n",
		withCounter, clicky, energy, lastScore, lubTerms)
}

func main() {
	fmt.Println("TapAndTurn's orientation sensor under LeaseOS, 30-minute runs")
	fmt.Println()
	fmt.Println("generic utility only:")
	run(false, false)
	fmt.Println("with the Figure 6 ClickUtility counter:")
	run(true, false) // icon shown, never clicked → utility collapses
	run(true, true)  // user actually uses the feature → leases renew
}
