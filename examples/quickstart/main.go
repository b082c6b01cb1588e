// Quickstart: build a simulated phone, leak a wakelock the way the Torch
// app does, and watch LeaseOS detect the Long-Holding behaviour, defer the
// lease, and collapse the wasted energy.
package main

import (
	"fmt"
	"time"

	leaseos "repro"
)

func main() {
	run := func(policy leaseos.Policy) float64 {
		s := leaseos.New(leaseos.Options{Policy: policy})

		// An app (uid 100) acquires a wakelock and forgets it — the classic
		// no-sleep energy bug.
		const appUID leaseos.UID = 100
		s.Apps.NewProcess(appUID)
		wl := s.Power.NewWakelock(appUID, leaseos.Wakelock, "forgotten")
		wl.Acquire()

		s.Run(30 * time.Minute)

		if policy == leaseos.LeaseOS {
			for _, l := range s.Leases.Leases() {
				last := s.Leases.Explanation(l).Last
				fmt.Printf("  lease %d (%v): state %v, last term classified %v "+
					"(utilization %.2f, utility %.0f)\n",
					l.ID(), l.Kind(), l.State(), last.Behavior,
					last.Utilization, last.UtilityScore)
			}
		}
		return s.Meter.EnergyOfJ(appUID)
	}

	fmt.Println("leaking a wakelock for 30 minutes on a", leaseos.PixelXL.Name)

	fmt.Println("\nvanilla resource management:")
	vanilla := run(leaseos.Vanilla)
	fmt.Printf("  app drained %.1f J\n", vanilla)

	fmt.Println("\nlease-based, utilitarian resource management:")
	withLease := run(leaseos.LeaseOS)
	fmt.Printf("  app drained %.1f J\n", withLease)

	fmt.Printf("\nwasted energy reduced by %.1f%% (paper Table 5: ~98%% for Torch)\n",
		100*(1-withLease/vanilla))
}
