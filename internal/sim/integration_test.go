package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/stats"
)

// TestDeterminism: identical builds produce bit-identical energy traces.
func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		s := New(Options{Policy: LeaseOS})
		p := s.Apps.NewProcess(100, "app")
		wl := s.Power.NewWakelock(100, hooks.Wakelock, "x")
		wl.Acquire()
		p.Every(time.Second, func() { p.RunWork(300*time.Millisecond, nil) })
		req := s.Location.Register(100, 2*time.Second, nil)
		_ = req
		s.Run(20 * time.Minute)
		return s.Meter.EnergyJ(), s.Leases.TermChecks
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", e1, c1, e2, c2)
	}
}

// TestMultiAppIsolation: one app's deferral must not revoke another app's
// resources.
func TestMultiAppIsolation(t *testing.T) {
	s := New(Options{Policy: LeaseOS})
	// App A leaks; app B works hard and legitimately.
	s.Apps.NewProcess(100, "leaker")
	leak := s.Power.NewWakelock(100, hooks.Wakelock, "leak")
	leak.Acquire()

	b := s.Apps.NewProcess(200, "worker")
	wlB := s.Power.NewWakelock(200, hooks.Wakelock, "work")
	wlB.Acquire()
	done := 0
	b.Every(time.Second, func() { b.RunWork(500*time.Millisecond, func() { done++ }) })

	s.Run(10 * time.Minute)

	var leakLease, workLease *lease.Lease
	for _, l := range s.Leases.Leases() {
		switch l.UID() {
		case 100:
			leakLease = l
		case 200:
			workLease = l
		}
	}
	if leakLease.State() != lease.Deferred {
		t.Fatalf("leaker state = %v, want DEFERRED", leakLease.State())
	}
	if workLease.State() != lease.Active {
		t.Fatalf("worker state = %v, want ACTIVE", workLease.State())
	}
	// The worker kept making progress the entire time (its wakelock keeps
	// the CPU up even while the leaker is suppressed).
	if done < 550 {
		t.Fatalf("worker completed %d units, want ~590", done)
	}
}

// TestPolicyEnergyOrderingOnLeak: for a canonical leak, vanilla must be the
// most expensive and LeaseOS at least as good as every baseline.
func TestPolicyEnergyOrderingOnLeak(t *testing.T) {
	energy := map[Policy]float64{}
	for _, pol := range Policies() {
		s := New(Options{Policy: pol})
		s.Apps.NewProcess(100, "torch")
		wl := s.Power.NewWakelock(100, hooks.Wakelock, "leak")
		wl.Acquire()
		s.Run(30 * time.Minute)
		energy[pol] = s.Meter.EnergyOfJ(100)
	}
	if energy[Vanilla] != stats.Max([]float64{energy[Vanilla], energy[LeaseOS], energy[DozeAggressive], energy[DefDroid], energy[Throttle]}) {
		t.Fatalf("vanilla should be worst: %+v", energy)
	}
	for _, pol := range []Policy{DozeAggressive, DefDroid} {
		if energy[LeaseOS] > energy[pol]+1e-9 {
			t.Fatalf("LeaseOS (%v J) should beat %v (%v J)", energy[LeaseOS], pol, energy[pol])
		}
	}
	// Default Doze never triggers within 30 minutes: same as vanilla.
	if math.Abs(energy[DozeDefault]-energy[Vanilla]) > 1e-9 {
		t.Fatalf("default doze should not engage in 30 min: %v vs %v", energy[DozeDefault], energy[Vanilla])
	}
}

// TestSystemEnergyNeverNegativeAndAdditive: whole-system invariant under a
// busy mixed workload.
func TestSystemEnergyNeverNegativeAndAdditive(t *testing.T) {
	s := New(Options{Policy: LeaseOS})
	uids := []power.UID{100, 101, 102}
	for _, uid := range uids {
		uid := uid
		p := s.Apps.NewProcess(uid, "app")
		wl := s.Power.NewWakelock(uid, hooks.Wakelock, "w")
		wl.Acquire()
		p.Every(time.Second, func() { p.RunWork(200*time.Millisecond, nil) })
		s.Location.Register(uid, 5*time.Second, nil)
	}
	last := 0.0
	for i := 0; i < 60; i++ {
		s.Run(time.Minute)
		total := s.Meter.EnergyJ()
		if total < last {
			t.Fatalf("system energy decreased: %v -> %v", last, total)
		}
		last = total
		sum := s.Meter.EnergyOfJ(power.SystemUID)
		for _, uid := range uids {
			sum += s.Meter.EnergyOfJ(uid)
		}
		if math.Abs(sum-total) > 1e-6 {
			t.Fatalf("per-uid energies (%v) do not sum to total (%v)", sum, total)
		}
	}
}

// TestPropertyRandomAppChaos hammers the full stack with random app event
// sequences and checks global invariants: no panics, legal lease states,
// non-negative monotone energy, and zero draw for suppressed-and-released
// apps after death.
func TestPropertyRandomAppChaos(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		s := New(Options{Policy: LeaseOS})
		allowed := map[[2]lease.State]bool{
			{lease.Active, lease.Deferred}: true, {lease.Active, lease.Inactive}: true,
			{lease.Active, lease.Active}: true, {lease.Deferred, lease.Active}: true,
			{lease.Deferred, lease.Inactive}: true, {lease.Inactive, lease.Active}: true,
			{lease.Active, lease.Dead}: true, {lease.Inactive, lease.Dead}: true,
			{lease.Deferred, lease.Dead}: true,
		}
		legal := true
		s.Leases.OnEvent = func(ev lease.Event) {
			if ev.Op == lease.EventTransition && !allowed[[2]lease.State{ev.From, ev.To}] {
				legal = false
			}
		}
		const nApps = 4
		procs := make([]*struct {
			uid  power.UID
			dead bool
		}, nApps)
		wls := make([]interface {
			Acquire()
			Release()
			Destroy()
		}, nApps)
		for i := 0; i < nApps; i++ {
			uid := power.UID(100 + i)
			s.Apps.NewProcess(uid, "chaos")
			wls[i] = s.Power.NewWakelock(uid, hooks.Wakelock, "chaos")
			procs[i] = &struct {
				uid  power.UID
				dead bool
			}{uid: uid}
		}
		for step := 0; step < 200; step++ {
			i := rng.Intn(nApps)
			if procs[i].dead {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				wls[i].Acquire()
			case 1:
				wls[i].Release()
			case 2:
				if p := s.Apps.ProcessOf(procs[i].uid); p != nil {
					p.RunWork(time.Duration(rng.Intn(2000))*time.Millisecond, nil)
				}
			case 3:
				if p := s.Apps.ProcessOf(procs[i].uid); p != nil {
					p.ThrowException()
				}
			case 4:
				s.Run(time.Duration(rng.Intn(20)) * time.Second)
			case 5:
				if rng.Intn(10) == 0 {
					if p := s.Apps.ProcessOf(procs[i].uid); p != nil {
						p.Kill()
						procs[i].dead = true
					}
				}
			}
			if !onePendingEventMatchingState(s.Leases) {
				return false
			}
		}
		s.Run(10 * time.Minute)

		// Invariants.
		if s.Meter.EnergyJ() < 0 {
			return false
		}
		for i := 0; i < nApps; i++ {
			if procs[i].dead && s.Meter.InstantPowerOfW(procs[i].uid) != 0 {
				return false
			}
		}
		return legal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// onePendingEventMatchingState is the manager's event invariant, read from a
// capture: an Active lease awaits its term check, a Deferred one its restore,
// and any other has nothing pending.
func onePendingEventMatchingState(m *lease.Manager) bool {
	for _, ls := range m.CaptureState().Leases {
		state := lease.State(ls.State)
		if ls.HasCheck != (state == lease.Active) || ls.HasRestor != (state == lease.Deferred) {
			return false
		}
	}
	return true
}

// TestPropertyLeaseTermAnalysis validates the paper's §5.1 analytical model
// r = H/T = 1/(1+λ) for arbitrary (term, τ) pairs: a pure Long-Holding app
// under a fixed deferral interval keeps the resource for term/(term+τ) of
// the run (up to boundary effects of one cycle).
func TestPropertyLeaseTermAnalysis(t *testing.T) {
	f := func(termS, tauS uint8) bool {
		term := time.Duration(int(termS)%120+10) * time.Second
		tau := time.Duration(int(tauS)%120+10) * time.Second
		s := New(Options{Policy: LeaseOS, Lease: lease.Config{
			Term: term, Tau: tau, NoTauEscalation: true, NoAdaptiveTerms: true,
		}})
		s.Apps.NewProcess(100, "holder")
		wl := s.Power.NewWakelock(100, hooks.Wakelock, "hold")
		wl.Acquire()
		const runFor = 2 * time.Hour
		s.Run(runFor)
		held := s.Meter.EnergyOfJ(100) / s.Profile.CPUIdleAwakeW // seconds
		want := runFor.Seconds() * float64(term) / float64(term+tau)
		// Allow one full cycle of boundary slack.
		slack := (term + tau).Seconds()
		return math.Abs(held-want) <= slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
