package leaseos_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	leaseos "repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	s.Apps.NewProcess(100)
	wl := s.Power.NewWakelock(100, leaseos.Wakelock, "x")
	wl.Acquire()
	s.Run(time.Minute)
	if s.Leases.LeaseCount() != 1 {
		t.Fatalf("leases = %d", s.Leases.LeaseCount())
	}
	l := s.Leases.Leases()[0]
	if l.Kind() != leaseos.Wakelock {
		t.Fatalf("kind = %v", l.Kind())
	}
	if got := s.Leases.Explanation(l).Last.Behavior; got != leaseos.LHB {
		t.Fatalf("behavior = %v, want LHB", got)
	}
}

func TestFacadeConstantsRoundTrip(t *testing.T) {
	for _, p := range []leaseos.Policy{
		leaseos.Vanilla, leaseos.LeaseOS, leaseos.DozeDefault,
		leaseos.DozeAggressive, leaseos.DefDroid, leaseos.Throttle,
	} {
		got, err := leaseos.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v %v", p, got, err)
		}
	}
}

func TestFacadeTable5AppsComplete(t *testing.T) {
	specs := leaseos.Table5Apps()
	if len(specs) != 20 {
		t.Fatalf("Table5Apps = %d rows, want 20", len(specs))
	}
	for _, sp := range specs {
		if sp.New == nil || sp.Trigger == nil || sp.Name == "" {
			t.Fatalf("incomplete spec %+v", sp)
		}
	}
}

func TestFacadeExperimentsListed(t *testing.T) {
	exps := leaseos.Experiments(true)
	if len(exps) != 21 {
		t.Fatalf("experiments = %d, want 21", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table-5", "figure-9", "figure-12", "battery-life"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestFacadeDeviceProfiles(t *testing.T) {
	for _, p := range []leaseos.DeviceProfile{
		leaseos.PixelXL, leaseos.Nexus6, leaseos.Nexus4,
		leaseos.GalaxyS4, leaseos.MotoG, leaseos.Nexus5X,
	} {
		if p.Name == "" || p.CapacityWh() <= 0 {
			t.Fatalf("bad profile %+v", p)
		}
	}
	if leaseos.PixelXL.WithDVFS(0.3).DVFSAlpha != 0.3 {
		t.Fatal("WithDVFS lost the alpha")
	}
}

// TestFacadeRunExperimentsParallel drives the parallel harness through the
// public facade: a small selection of experiments runs at two worker
// counts and must render identically, in the requested order.
func TestFacadeRunExperimentsParallel(t *testing.T) {
	defer leaseos.WithParallelism(0)
	var selected []leaseos.Experiment
	for _, e := range leaseos.Experiments(true) {
		switch e.ID {
		case "table-1", "figure-5", "figure-9":
			selected = append(selected, e)
		}
	}
	if len(selected) != 3 {
		t.Fatalf("selected %d experiments, want 3", len(selected))
	}
	render := func(n int) string {
		leaseos.WithParallelism(n)
		var b strings.Builder
		results := leaseos.RunExperiments(selected)
		for i, r := range results {
			if r.ID != selected[i].ID {
				t.Fatalf("result %d = %s, want %s (input order must be preserved)", i, r.ID, selected[i].ID)
			}
			b.WriteString(r.String())
		}
		return b.String()
	}
	if seq, par := render(1), render(4); seq != par {
		t.Fatalf("facade output differs between 1 and 4 workers:\n%s\n---\n%s", seq, par)
	}
}

func TestDefaultLeaseConfigMatchesPaper(t *testing.T) {
	cfg := leaseos.DefaultLeaseConfig()
	if cfg.Term != 5*time.Second || cfg.Tau != 25*time.Second {
		t.Fatalf("defaults = term %v τ %v, want the paper's 5 s / 25 s", cfg.Term, cfg.Tau)
	}
}

// Example demonstrates the headline quickstart flow.
func Example() {
	s := leaseos.New(leaseos.Options{Policy: leaseos.LeaseOS})
	s.Apps.NewProcess(100)
	wl := s.Power.NewWakelock(100, leaseos.Wakelock, "forgotten")
	wl.Acquire()
	s.Run(30 * time.Minute)
	fmt.Printf("state: %v\n", s.Leases.Leases()[0].State())
	// Output: state: DEFERRED
}
