// Buggymail walks through the paper's K-9 Mail case study (§2.1 case I,
// Figure 8): a push service that loops over network requests under a held
// wakelock and, when the network disconnects, spins in its exception
// handler indefinitely.
//
// The example reproduces the three phases of the paper's narrative:
//
//  1. healthy server — the lease renews quietly and nothing is penalised;
//  2. network gone — the Low-Utility behaviour appears and LeaseOS defers
//     the lease, pausing the useless retry loop;
//  3. network back — the loop completes, the app returns to normal, and
//     the lease recovers on its own ("the lease mechanism can adapt to
//     temporary energy misbehavior").
package main

import (
	"fmt"
	"time"

	leaseos "repro"
	"repro/internal/apps"
	"repro/internal/lease"
)

func main() {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	var transitions []lease.Event
	s.Leases.OnEvent = func(ev lease.Event) {
		if ev.Op == lease.EventTransition {
			transitions = append(transitions, ev)
		}
	}

	const uid leaseos.UID = 100
	k9 := apps.NewK9(s, uid)
	k9.Start()

	report := func(phase string) {
		fmt.Printf("%-28s t=%-8v energy=%6.1f J  exceptions=%-5d",
			phase, s.Now().Truncate(time.Second), s.Meter.EnergyOfJ(uid), s.Apps.ExceptionsOf(uid))
		for _, l := range s.Leases.Leases() {
			fmt.Printf("  lease(%v)=%v", l.Kind(), l.State())
		}
		fmt.Println()
	}

	// Phase 1: everything healthy for 10 minutes.
	s.Run(10 * time.Minute)
	report("healthy server")

	// Phase 2: the network disconnects; the buggy handler retries without
	// back-off, throwing an exception per attempt.
	s.World.SetNetwork(false, false)
	s.Run(10 * time.Minute)
	report("disconnected (bug active)")

	// Phase 3: connectivity returns; the lease recovers by itself.
	s.World.SetNetwork(true, true)
	s.Run(10 * time.Minute)
	report("reconnected")

	fmt.Println("\nlease transitions observed:")
	for _, tr := range transitions {
		fmt.Printf("  %8v  %v -> %v  (%s)\n", tr.At.Truncate(time.Second), tr.From, tr.To, tr.Reason)
	}
}
