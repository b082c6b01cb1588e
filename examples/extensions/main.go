// Extensions demonstrates the three §8 future-work directions this
// reproduction implements beyond the paper's published system:
//
//  1. reputation — per-app history that follows a defect across fresh
//     kernel objects, so a leak that mints a new wakelock per cycle cannot
//     keep resetting its penalty;
//  2. DVFS-aware energy accounting — concurrent CPU load raises the
//     operating point, so each running work item draws superlinearly;
//  3. Excessive-Use observability — EUB is never penalised (the paper's
//     §4 non-goal stands) but is surfaced per app for a user-facing layer.
package main

import (
	"fmt"
	"time"

	leaseos "repro"
	"repro/internal/android/hooks"
)

func reputationDemo() {
	fmt.Println("1. reputation: a fresh-object leaker, 12 cycles of 2 minutes")
	run := func(enable bool) float64 {
		cfg := leaseos.DefaultLeaseConfig()
		cfg.EnableReputation = enable
		s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS, Lease: cfg})
		s.Apps.NewProcess(100)
		for i := 0; i < 12; i++ {
			wl := s.Power.NewWakelock(100, leaseos.Wakelock, "cycle")
			wl.Acquire()
			s.Run(2 * time.Minute)
			wl.Destroy() // a fresh kernel object next cycle: new lease
		}
		return s.Meter.EnergyOfJ(100)
	}
	off := run(false)
	on := run(true)
	fmt.Printf("   reputation off: %5.2f J   on: %5.2f J   (extra %.0f%% saved)\n\n",
		off, on, 100*(1-on/off))
}

func dvfsDemo() {
	fmt.Println("2. DVFS-aware accounting: two apps grinding concurrently for 1 minute")
	run := func(alpha float64) float64 {
		s := leaseos.New(leaseos.Options{
			Policy: leaseos.Vanilla,
			Device: leaseos.PixelXL.WithDVFS(alpha),
		})
		for uid := leaseos.UID(100); uid <= 101; uid++ {
			p := s.Apps.NewProcess(uid)
			wl := s.Power.NewWakelock(uid, leaseos.Wakelock, "grind")
			wl.Acquire()
			p.RunWork(time.Minute, nil)
		}
		s.Run(time.Minute)
		return s.Meter.EnergyJ()
	}
	flat := run(0)
	dvfs := run(0.3)
	fmt.Printf("   frequency-flat: %5.1f J   DVFS α=0.3: %5.1f J (+%.0f%%)\n\n",
		flat, dvfs, 100*(dvfs/flat-1))
}

func eubDemo() {
	fmt.Println("3. EUB observability: a heavy game under LeaseOS for 10 minutes")
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	p := s.Apps.NewProcess(100)
	wl := s.Power.NewWakelock(100, hooks.Wakelock, "game-loop")
	wl.Acquire()
	stop := p.Every(time.Second, func() {
		p.RunWork(900*time.Millisecond, func() { p.NoteUIUpdate() })
		p.NoteInteraction()
	})
	defer stop()
	s.Run(10 * time.Minute)
	l := s.Leases.Leases()[0]
	fmt.Printf("   lease state: %v (never deferred — EUB is a non-goal)\n", l.State())
	fmt.Printf("   EUB time observed for the app: %v of 10m\n",
		s.Leases.EUBTimeOf(100).Truncate(time.Second))
	fmt.Printf("   reputation: %+v\n", s.Leases.ReputationOf(100))
}

func main() {
	reputationDemo()
	dvfsDemo()
	eubDemo()
}
