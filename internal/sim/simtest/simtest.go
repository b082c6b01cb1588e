// Package simtest holds what the simulator's tests share across packages: the
// panel of apps the repository benchmark times, and a bit-level fingerprint of
// a running world.
package simtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/sim"
)

// PanelApp is one device of the panel: an app, and the environment it needs,
// installed at a given UID.
type PanelApp struct {
	Name    string
	Install func(s *sim.Sim, uid power.UID)
}

// Panel is the repository benchmark's panel (benchmark/simfleet.go,
// panelInstall, which installs each at UID 100): the paper's well-behaved and
// defective apps, one a device.
var Panel = []PanelApp{
	{"Spotify", func(s *sim.Sim, uid power.UID) { apps.NewSpotify(s, uid).Start() }},
	{"RunKeeper", func(s *sim.Sim, uid power.UID) { apps.NewRunKeeper(s, uid).Start(); s.World.SetMotion(true, 2.5) }},
	{"Haven", func(s *sim.Sim, uid power.UID) { apps.NewHaven(s, uid).Start() }},
	{"GPSLogger", func(s *sim.Sim, uid power.UID) { apps.NewGPSLogger(s, uid).Start() }},
	{"K9", func(s *sim.Sim, uid power.UID) { apps.NewK9(s, uid).Start(); s.World.SetServerHealthy(false) }},
	{"Kontalk", func(s *sim.Sim, uid power.UID) { apps.NewKontalk(s, uid).Start() }},
	{"Torch", func(s *sim.Sim, uid power.UID) { apps.NewTorch(s, uid).Start() }},
	{"SyncApp", func(s *sim.Sim, uid power.UID) {
		apps.NewSyncApp(s, uid, "mail-sync", time.Minute, 500*time.Millisecond, time.Second).Start()
	}},
}

// Fingerprint simulates s for window and hashes, after every `every` of it,
// what a change to the simulator's arithmetic or event order moves: each of
// uids' energy (as float bits) and CPU time, each component's energy and the
// total, the IPC count, the CPU-awake time and the event-queue length. Two
// builds that agree on a world's fingerprint simulated it bit for bit alike,
// which a report printed to one decimal cannot tell. Reading the meter
// integrates it up to the instant read, so an observed run's floats are not an
// unobserved one's: compare fingerprints only with fingerprints.
func Fingerprint(s *sim.Sim, window, every time.Duration, uids ...power.UID) string {
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for done := time.Duration(0); done < window; {
		step := min(every, window-done)
		s.Run(step)
		done += step
		for _, uid := range uids {
			put(math.Float64bits(s.Meter.EnergyOfJ(uid)))
			put(uint64(s.Apps.CPUTimeOf(uid)))
		}
		byComp := s.Meter.EnergyByComponentJ()
		for c := power.CPU; c <= power.System; c++ {
			put(math.Float64bits(byComp[c]))
		}
		put(math.Float64bits(s.Meter.EnergyJ()))
		put(uint64(s.Registry.IPCCount))
		put(uint64(s.Power.TotalAwakeTime()))
		put(uint64(s.Engine.Len()))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}
