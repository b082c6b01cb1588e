package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file implements the fleet-scale population sweep: N simulated
// devices drawn from a weighted population over hardware profile × app mix
// × policy, each run for a short window, with battery-life and
// policy-intervention statistics aggregated per policy.
//
// The design constraints, in order:
//
//  1. Deterministic at any parallelism. Each device's randomness derives
//     solely from SplitMix64(fleetSeed, deviceIndex), so a device's run is
//     independent of which worker executes it or how work is batched; and
//     partial aggregates are merged in fixed chunk-index order, so float
//     rounding is identical at one worker and at sixteen.
//  2. O(workers) memory. Per-device results stream into stats.Accum
//     fixed-bin accumulators — one set per in-flight chunk plus the global
//     set — never into per-device slices. A million-device sweep holds no
//     more state than a thousand-device one.
//  3. World reuse. Workers draw reset worlds from a sim.Pool keyed by
//     (profile, policy), skipping the ~60k-allocation assembly for all but
//     the first few devices of each configuration.

// splitMix64 is the SplitMix64 finalizer (Steele et al.), the standard
// seed-expansion mix.
func splitMix64(x uint64) uint64 {
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeviceSeed derives device i's RNG seed from the fleet seed: the i-th
// output of the SplitMix64 stream seeded with fleetSeed. Every per-device
// random decision flows from this one value, which is what makes the fleet
// embarrassingly parallel without sacrificing reproducibility.
func DeviceSeed(fleetSeed uint64, i int) uint64 {
	return splitMix64(fleetSeed + (uint64(i)+1)*0x9E3779B97F4A7C15)
}

// fleetProfile is one entry of the weighted hardware population.
type fleetProfile struct {
	prof   device.Profile
	weight int
}

// fleetProfiles weights the six hardware profiles roughly by age: newer
// phones are more common in the modeled population.
var fleetProfiles = []fleetProfile{
	{device.PixelXL, 25},
	{device.Nexus5X, 20},
	{device.Nexus6, 15},
	{device.GalaxyS4, 15},
	{device.MotoG, 15},
	{device.Nexus4, 10},
}

// appMix is one entry of the weighted app-mix population. install scripts
// the device's apps and environment; it may draw from r, and must be a pure
// function of r's state so a reused world replays identically.
type appMix struct {
	name    string
	weight  int
	install func(s *sim.Sim, r *rand.Rand)
}

// syncApp installs one background sync app with a period jittered by r.
func syncApp(s *sim.Sim, r *rand.Rand, uid power.UID, name string) {
	period := time.Duration(45+r.Intn(60)) * time.Second
	apps.NewSyncApp(s, uid, name, period, 500*time.Millisecond, time.Second).Start()
}

// fleetMixes is the weighted app-mix population: five well-behaved usage
// patterns and three of the paper's defect classes.
var fleetMixes = []appMix{
	{"idle", 20, func(s *sim.Sim, r *rand.Rand) {
		syncApp(s, r, 100, "mail-sync")
		syncApp(s, r, 101, "feed-sync")
	}},
	{"music", 15, func(s *sim.Sim, r *rand.Rand) {
		apps.NewSpotify(s, 100).Start()
		syncApp(s, r, 101, "mail-sync")
	}},
	{"active", 15, func(s *sim.Sim, r *rand.Rand) {
		s.World.SetUserPresent(true)
		s.Power.SetUserScreen(true)
		apps.NewYouTube(s, 100).Start()
		syncApp(s, r, 101, "mail-sync")
	}},
	{"tracker", 10, func(s *sim.Sim, r *rand.Rand) {
		s.World.SetMotion(true, 1.5+2*r.Float64())
		apps.NewRunKeeper(s, 100).Start()
		syncApp(s, r, 101, "mail-sync")
	}},
	{"monitor", 10, func(s *sim.Sim, r *rand.Rand) {
		apps.NewHaven(s, 100).Start()
		syncApp(s, r, 101, "feed-sync")
	}},
	{"buggy-gps", 10, func(s *sim.Sim, r *rand.Rand) {
		apps.NewGPSLogger(s, 100).Start()
		syncApp(s, r, 101, "mail-sync")
		syncApp(s, r, 102, "feed-sync")
	}},
	{"buggy-mail", 10, func(s *sim.Sim, r *rand.Rand) {
		s.World.SetServerHealthy(false)
		apps.NewK9(s, 100).Start()
		syncApp(s, r, 101, "feed-sync")
	}},
	{"buggy-chat", 10, func(s *sim.Sim, r *rand.Rand) {
		apps.NewKontalk(s, 100).Start()
		syncApp(s, r, 101, "mail-sync")
	}},
}

func sumWeights[T any](items []T, weight func(T) int) int {
	total := 0
	for _, it := range items {
		total += weight(it)
	}
	return total
}

var (
	profileWeightTotal = sumWeights(fleetProfiles, func(p fleetProfile) int { return p.weight })
	mixWeightTotal     = sumWeights(fleetMixes, func(m appMix) int { return m.weight })
)

func pickWeighted(r *rand.Rand, total int, weight func(i int) int, n int) int {
	w := r.Intn(total)
	for i := 0; i < n; i++ {
		w -= weight(i)
		if w < 0 {
			return i
		}
	}
	return n - 1
}

// fleetDevice is one drawn population member.
type fleetDevice struct {
	profile device.Profile
	mix     *appMix
	policy  sim.Policy
}

// drawDevice derives a device's configuration from its seed alone: r stands
// at the start of the stream its DeviceSeed seeds, and is left where the
// device's app mix picks up. A fleet worker re-seeds one generator
// per device rather than building one — by math/rand's contract Seed leaves
// it in the state a new one starts in (TestReseededRandDrawsSameDevices), and
// re-seeding a stats.NewRand generator clears a bitmap, where a new one is a
// 4.9 KB allocation.
func drawDevice(r *rand.Rand) fleetDevice {
	pols := sim.Policies()
	var d fleetDevice
	d.profile = fleetProfiles[pickWeighted(r, profileWeightTotal,
		func(i int) int { return fleetProfiles[i].weight }, len(fleetProfiles))].prof
	d.mix = &fleetMixes[pickWeighted(r, mixWeightTotal,
		func(i int) int { return fleetMixes[i].weight }, len(fleetMixes))]
	d.policy = pols[r.Intn(len(pols))]
	return d
}

// interventions reports how many times the device's governor acted against
// an app — deferrals under LeaseOS, revocations under the throttlers,
// per-object suppressions under Doze. A device whose count is positive is a
// "defaulter" household in the population statistics.
func interventions(s *sim.Sim) int {
	switch {
	case s.Leases != nil:
		return s.Leases.Deferrals
	case s.DefDroidGov != nil:
		return s.DefDroidGov.Revocations
	case s.ThrottleGov != nil:
		return s.ThrottleGov.Revocations
	case s.Doze != nil:
		return s.Doze.Suppressions
	}
	return 0
}

// FleetConfig parameterises a population sweep.
type FleetConfig struct {
	// Devices is the population size.
	Devices int
	// Seed is the fleet seed every device seed derives from.
	Seed uint64
	// Window is the simulated time each device runs (default 30 min).
	Window time.Duration
	// ChunkSize is the fixed work-batch size (default 512). It is part of
	// the result's identity: aggregates merge per chunk, so a different
	// chunk size may differ in final float ulps (never in counts). It is
	// deliberately NOT derived from the worker count.
	ChunkSize int
}

func (cfg FleetConfig) withDefaults() FleetConfig {
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Minute
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 512
	}
	return cfg
}

// FleetPolicyStats is the per-policy slice of a fleet report.
type FleetPolicyStats struct {
	Policy  sim.Policy
	Devices int64
	// Battery-life distribution across the policy's devices, in hours.
	BattP5, BattP50, BattP95, BattMean float64
	// DefaulterPct is the share of devices with ≥1 policy intervention.
	DefaulterPct float64
	// InterventionsPerDevice is the mean intervention count.
	InterventionsPerDevice float64
}

// FleetReport is the aggregated outcome of a population sweep.
type FleetReport struct {
	Config    FleetConfig
	PerPolicy []FleetPolicyStats // in sim.Policies() order
}

// battHistLo/Hi/Bins: the battery-life accumulator covers [0, 1500) hours
// at 0.5 h resolution — wide enough that a near-idle device's extrapolated
// life lands in a real bin instead of saturating the top one. Quantiles
// clamp to observed extrema beyond the range.
const (
	battHistLo   = 0.0
	battHistHi   = 1500.0
	battHistBins = 3000
)

// fleetAccums is the streaming aggregate: one battery-life accumulator and
// three exact counters per policy. This is the only per-chunk and global
// state — O(policies × bins), independent of the device count.
type fleetAccums struct {
	batt          []*stats.Accum
	devices       []int64
	defaulters    []int64
	interventions []int64
}

func newFleetAccums(nPol int) *fleetAccums {
	a := &fleetAccums{
		batt:          make([]*stats.Accum, nPol),
		devices:       make([]int64, nPol),
		defaulters:    make([]int64, nPol),
		interventions: make([]int64, nPol),
	}
	for i := range a.batt {
		a.batt[i] = stats.NewAccum(battHistLo, battHistHi, battHistBins)
	}
	return a
}

func (a *fleetAccums) merge(o *fleetAccums) {
	for i := range a.batt {
		a.batt[i].Merge(o.batt[i])
		a.devices[i] += o.devices[i]
		a.defaulters[i] += o.defaulters[i]
		a.interventions[i] += o.interventions[i]
	}
}

// installFleetDevice draws population member i and installs its app mix on a
// pooled world, ready to run. r is the worker's generator, re-seeded here.
func installFleetDevice(cfg FleetConfig, pool *sim.Pool, r *rand.Rand, i int) (fleetDevice, *sim.Sim) {
	r.Seed(int64(DeviceSeed(cfg.Seed, i)))
	d := drawDevice(r)
	s := pool.Get(sim.Options{Device: d.profile, Policy: d.policy})
	d.mix.install(s, r)
	return d, s
}

// runFleetDevice simulates one population member on a pooled world and
// folds its outcome into acc.
func runFleetDevice(cfg FleetConfig, pool *sim.Pool, polIndex map[sim.Policy]int, r *rand.Rand, i int, acc *fleetAccums) {
	d, s := installFleetDevice(cfg, pool, r, i)
	defer pool.Put(s)
	s.Run(cfg.Window)

	meanW := s.Meter.EnergyJ() / cfg.Window.Seconds()
	hours := battHistHi
	if meanW > 0 {
		hours = s.Profile.CapacityJ() / meanW / 3600
	}
	iv := interventions(s)

	p := polIndex[d.policy]
	acc.batt[p].Add(hours)
	acc.devices[p]++
	if iv > 0 {
		acc.defaulters[p]++
	}
	acc.interventions[p] += int64(iv)
}

// RunFleet executes the sweep. Work is batched into fixed-size chunks
// handed to Parallelism() workers; each worker folds its chunk into a
// private fleetAccums, then merges it into the global one strictly in
// chunk-index order (workers wait for their turn), so the report is
// byte-identical at any worker count while memory stays O(workers).
func RunFleet(cfg FleetConfig) FleetReport {
	cfg = cfg.withDefaults()
	pols := sim.Policies()
	polIndex := make(map[sim.Policy]int, len(pols))
	for i, p := range pols {
		polIndex[p] = i
	}

	global := newFleetAccums(len(pols))
	nChunks := (cfg.Devices + cfg.ChunkSize - 1) / cfg.ChunkSize
	nw := Parallelism()
	if nw > nChunks {
		nw = nChunks
	}

	pool := sim.NewPool()
	var (
		claim      atomic.Int64 // next unclaimed chunk
		mu         sync.Mutex
		mergeTurn  = 0 // next chunk index allowed to merge
		turnSignal = sync.NewCond(&mu)
		wg         sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		r := stats.NewRand(0)
		for {
			c := int(claim.Add(1)) - 1
			if c >= nChunks {
				return
			}
			acc := newFleetAccums(len(pols))
			lo := c * cfg.ChunkSize
			hi := lo + cfg.ChunkSize
			if hi > cfg.Devices {
				hi = cfg.Devices
			}
			for i := lo; i < hi; i++ {
				runFleetDevice(cfg, pool, polIndex, r, i, acc)
			}
			mu.Lock()
			for mergeTurn != c {
				turnSignal.Wait()
			}
			global.merge(acc)
			mergeTurn++
			turnSignal.Broadcast()
			mu.Unlock()
		}
	}
	if nw <= 1 {
		wg.Add(1)
		worker()
	} else {
		wg.Add(nw)
		for w := 0; w < nw; w++ {
			go worker()
		}
		wg.Wait()
	}

	rep := FleetReport{Config: cfg}
	for i, pol := range pols {
		st := FleetPolicyStats{Policy: pol, Devices: global.devices[i]}
		if st.Devices > 0 {
			b := global.batt[i]
			st.BattP5 = b.Quantile(0.05)
			st.BattP50 = b.Quantile(0.50)
			st.BattP95 = b.Quantile(0.95)
			st.BattMean = b.Mean()
			st.DefaulterPct = 100 * float64(global.defaulters[i]) / float64(st.Devices)
			st.InterventionsPerDevice = float64(global.interventions[i]) / float64(st.Devices)
		}
		rep.PerPolicy = append(rep.PerPolicy, st)
	}
	return rep
}

// Render formats the report as an experiment Result.
func (rep FleetReport) Render() Result {
	r := Result{ID: "fleet", Title: "Population sweep: battery life and defaulter rate per policy"}
	r.addf("devices %d, seed %d, window %s, chunk %d",
		rep.Config.Devices, rep.Config.Seed, rep.Config.Window, rep.Config.ChunkSize)
	r.addf("%-16s %8s | %7s %7s %7s %7s | %9s %8s",
		"policy", "devices", "p5 h", "p50 h", "p95 h", "mean h", "defaulter", "iv/dev")
	for _, st := range rep.PerPolicy {
		r.addf("%-16s %8d | %7.1f %7.1f %7.1f %7.1f | %8.2f%% %8.3f",
			st.Policy, st.Devices, st.BattP5, st.BattP50, st.BattP95, st.BattMean,
			st.DefaulterPct, st.InterventionsPerDevice)
	}
	r.notef("population: %d hardware profiles × %d app mixes × %d policies; device i seeded by SplitMix64(seed, i)",
		len(fleetProfiles), len(fleetMixes), len(sim.Policies()))
	return r
}

// Fleet runs a sweep and renders it; the experiment-harness entry point.
// It is intentionally not part of Runners(): its population scale is chosen
// per invocation (see cmd/fleetsim), not fixed like the paper artefacts.
func Fleet(cfg FleetConfig) Result {
	rep := RunFleet(cfg)
	r := rep.Render()
	return r
}

// fleetStatsByPolicy is a test/CLI convenience: the stats row for pol, or a
// zero row if absent.
func (rep FleetReport) fleetStatsByPolicy(pol sim.Policy) FleetPolicyStats {
	for _, st := range rep.PerPolicy {
		if st.Policy == pol {
			return st
		}
	}
	return FleetPolicyStats{Policy: pol}
}

// Degenerate reports whether the sweep produced trivially flat results —
// the smoke-test guard: every policy must see devices, battery life must
// actually vary across the population, and at least one governed policy
// must both intervene somewhere and leave someone alone.
func (rep FleetReport) Degenerate() (string, bool) {
	anyIntervening := false
	for _, st := range rep.PerPolicy {
		if st.Devices == 0 {
			return fmt.Sprintf("policy %v drew no devices", st.Policy), true
		}
		if st.BattP5 >= st.BattP95 {
			return fmt.Sprintf("policy %v battery-life distribution is flat (p5 %.2f ≥ p95 %.2f)",
				st.Policy, st.BattP5, st.BattP95), true
		}
		if st.Policy != sim.Vanilla && st.DefaulterPct > 0 && st.DefaulterPct < 100 {
			anyIntervening = true
		}
	}
	if !anyIntervening {
		return "no governed policy produced a mixed defaulter population", true
	}
	return "", false
}
