package exp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/stats"
)

var updateFingerprint = flag.Bool("update-fingerprint", false, "rewrite testdata/fingerprint.golden")

// fingerprintUIDs are every owner the panel and the fleet's app mixes use.
var fingerprintUIDs = []power.UID{power.SystemUID, 100, 101, 102}

const fingerprintEvery = 10 * time.Minute

// TestBitIdentityFingerprint is the simulator's bit-level pin (simtest.Fingerprint:
// energy per uid and component as float bits, CPU time, IPC count, awake time
// and queue length, every 10 simulated minutes) over the repository
// benchmark's panel under every policy, each world built fresh and then
// reset out of a pool, and over the first 256 devices of the seed-1 fleet on
// the path a fleet worker takes. Where experiments_output.txt and the fleet
// golden print one decimal, this catches a one-ulp drift: a reordered meter
// update, a split integration interval. A change that makes the simulator
// cheaper must leave it as it is; one that means to move a simulated figure
// refreshes it with
//
//	go test ./internal/exp -run TestBitIdentityFingerprint -update-fingerprint
func TestBitIdentityFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 352 device-windows")
	}
	var b strings.Builder
	pool := sim.NewPool()
	for _, pol := range sim.Policies() {
		for _, app := range simtest.Panel {
			var fp [2]string
			for i := range fp { // fresh, then the same world reset
				s := pool.Get(sim.Options{Policy: pol})
				app.Install(s, 100)
				fp[i] = simtest.Fingerprint(s, panelWindow, fingerprintEvery, fingerprintUIDs...)
				pool.Put(s)
			}
			if fp[0] != fp[1] {
				t.Errorf("%v/%s: fresh world %s, reset world %s", pol, app.Name, fp[0], fp[1])
			}
			fmt.Fprintf(&b, "panel %v/%s %s\n", pol, app.Name, fp[0])
		}
	}

	cfg := FleetConfig{Devices: 256, Seed: 1}.withDefaults()
	r := stats.NewRand(0)
	pool = sim.NewPool()
	for i := 0; i < cfg.Devices; i++ {
		d, s := installFleetDevice(cfg, pool, r, i)
		fp := simtest.Fingerprint(s, cfg.Window, fingerprintEvery, fingerprintUIDs...)
		pool.Put(s)
		fmt.Fprintf(&b, "fleet %03d %s/%s/%v %s\n", i, d.profile.Name, d.mix.name, d.policy, fp)
	}

	const golden = "testdata/fingerprint.golden"
	if *updateFingerprint {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading fingerprint golden: %v", err)
	}
	want, got := strings.Split(string(raw), "\n"), strings.Split(b.String(), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s line %d: want %q, got %q", golden, i+1, want[i], got[min(i, len(got)-1)])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, got %d", golden, len(want), len(got))
	}
}

// panelWindow is the benchmark's simulated window for a panel device.
const panelWindow = 30 * time.Minute
