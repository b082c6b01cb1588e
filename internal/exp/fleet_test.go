package exp

import (
	"os"
	"testing"

	"repro/internal/stats"
)

// TestSplitMix64Golden pins DeviceSeed to the published SplitMix64 reference
// stream (Steele et al.; same vectors as Vigna's splitmix64.c test): the
// first outputs of the generator seeded with 0. Any drift here silently
// reshuffles every fleet population ever generated.
func TestSplitMix64Golden(t *testing.T) {
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	for i, w := range want {
		if got := DeviceSeed(0, i); got != w {
			t.Errorf("DeviceSeed(0, %d) = %#016x, want %#016x", i, got, w)
		}
	}
	// Distinct fleet seeds must decorrelate the whole stream.
	if DeviceSeed(0, 0) == DeviceSeed(1, 0) {
		t.Error("DeviceSeed(0, 0) == DeviceSeed(1, 0): fleet seed has no effect")
	}
}

// TestDrawDeviceCoverage checks the weighted population draw actually
// exercises every hardware profile, app mix and policy over a modest sample.
func TestDrawDeviceCoverage(t *testing.T) {
	profiles := map[string]bool{}
	mixes := map[string]bool{}
	policies := map[string]bool{}
	for i := 0; i < 2000; i++ {
		d := drawDevice(stats.NewRand(int64(DeviceSeed(42, i))))
		profiles[d.profile.Name] = true
		mixes[d.mix.name] = true
		policies[d.policy.String()] = true
	}
	if len(profiles) != len(fleetProfiles) {
		t.Errorf("drew %d/%d hardware profiles: %v", len(profiles), len(fleetProfiles), profiles)
	}
	if len(mixes) != len(fleetMixes) {
		t.Errorf("drew %d/%d app mixes: %v", len(mixes), len(fleetMixes), mixes)
	}
	if wantPols := 6; len(policies) != wantPols {
		t.Errorf("drew %d/%d policies: %v", len(policies), wantPols, policies)
	}
}

// TestReseededRandDrawsSameDevices pins what lets a fleet worker keep one
// generator: re-seeding a used *rand.Rand yields the stream a new one built
// from the same seed yields — the same device, and the same numbers after it
// for the app mix to draw from.
func TestReseededRandDrawsSameDevices(t *testing.T) {
	shared := stats.NewRand(0)
	for i := 0; i < 1000; i++ {
		seed := int64(DeviceSeed(42, i))
		fresh := stats.NewRand(seed)
		shared.Seed(seed)
		want, got := drawDevice(fresh), drawDevice(shared)
		if got.profile != want.profile || got.mix != want.mix || got.policy != want.policy {
			t.Fatalf("device %d: re-seeded draw %s/%s/%v, fresh draw %s/%s/%v", i,
				got.profile.Name, got.mix.name, got.policy, want.profile.Name, want.mix.name, want.policy)
		}
		for k := 0; k < 10; k++ {
			if g, w := shared.Int63(), fresh.Int63(); g != w {
				t.Fatalf("device %d: Int63 #%d after the draw is %d re-seeded, %d fresh", i, k, g, w)
			}
		}
	}
}

// TestFleetOrderIndependence is the fleet's keystone guarantee: the rendered
// report must be byte-identical whether devices run on one worker or eight,
// and regardless of which worker finishes first. A small chunk size forces
// many chunks so the ordered-merge path is genuinely contended.
//
// The sequential report is also compared against a golden file: a change to
// any service, the framework or a policy that moves a fleet statistic fails
// here, in tier-1, not only against benchmark/'s pinned digest. Refresh it
// only for a change that means to move a simulated statistic.
func TestFleetOrderIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~4k device-windows")
	}
	cfg := FleetConfig{Devices: 2000, Seed: 7, ChunkSize: 64}

	old := int(workers.Load())
	defer SetParallelism(old)

	SetParallelism(1)
	seq := RunFleet(cfg).Render().String()
	SetParallelism(8)
	par := RunFleet(cfg).Render().String()

	if seq != par {
		t.Fatalf("fleet report differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	const golden = "testdata/fleet_2000_seed7.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading fleet golden: %v", err)
	}
	if seq != string(want) {
		t.Fatalf("fleet report differs from %s:\n--- golden ---\n%s\n--- got ---\n%s", golden, want, seq)
	}
}

// TestFleetSmokeShape checks a small sweep is well-formed: every policy
// drew devices summing to the population, distributions are non-degenerate,
// and vanilla (no governor) reports zero interventions.
func TestFleetSmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1.2k device-windows")
	}
	rep := RunFleet(FleetConfig{Devices: 1200, Seed: 3})
	if reason, bad := rep.Degenerate(); bad {
		t.Fatalf("degenerate sweep: %s", reason)
	}
	var total int64
	for _, st := range rep.PerPolicy {
		total += st.Devices
		if !(st.BattP5 <= st.BattP50 && st.BattP50 <= st.BattP95) {
			t.Errorf("%v quantiles out of order: p5 %v p50 %v p95 %v",
				st.Policy, st.BattP5, st.BattP50, st.BattP95)
		}
	}
	if total != 1200 {
		t.Errorf("per-policy devices sum to %d, want 1200", total)
	}
	v := rep.fleetStatsByPolicy(0) // sim.Vanilla
	if v.DefaulterPct != 0 || v.InterventionsPerDevice != 0 {
		t.Errorf("vanilla reports interventions: defaulter %v%%, iv/dev %v",
			v.DefaulterPct, v.InterventionsPerDevice)
	}
}
