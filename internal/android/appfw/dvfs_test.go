package appfw

import (
	"math"
	"testing"
	"time"

	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/powermgr"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/power"
	"repro/internal/simclock"
)

func newDVFSRig(alpha float64) *rig {
	prof := device.PixelXL.WithDVFS(alpha)
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	r := binder.NewRegistry()
	w := env.New()
	pm := powermgr.New(e, m, r, prof, hooks.Nop{})
	fw := New(e, m, prof, w, pm, r, hooks.Nop{})
	return &rig{engine: e, meter: m, reg: r, world: w, pm: pm, fw: fw}
}

func TestDVFSSuperlinearDraw(t *testing.T) {
	r := newDVFSRig(0.3)
	p := r.fw.NewProcess(10)
	q := r.fw.NewProcess(20)
	r.hold(10)

	p.RunWork(10*time.Second, nil)
	r.engine.RunUntil(time.Second)
	single := r.meter.InstantPowerOfW(10)

	q.RunWork(10*time.Second, nil)
	r.engine.RunUntil(2 * time.Second)
	// With two concurrent items, each draws 1.3×; uid 10's CPU-work draw
	// must have risen accordingly.
	concurrent := r.meter.InstantPowerOfW(10)
	if concurrent <= single {
		t.Fatalf("DVFS draw did not rise under load: %v → %v", single, concurrent)
	}
	want := single + 0.3*device.PixelXL.CPUActiveW
	if diff := concurrent - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("concurrent draw = %v, want %v", concurrent, want)
	}
}

func TestDVFSDrawDropsWhenLoadEnds(t *testing.T) {
	r := newDVFSRig(0.5)
	p := r.fw.NewProcess(10)
	q := r.fw.NewProcess(20)
	r.hold(10)
	p.RunWork(20*time.Second, nil)
	q.RunWork(2*time.Second, nil)
	r.engine.RunUntil(5 * time.Second) // q finished at 2 s
	want := device.PixelXL.CPUActiveW + device.PixelXL.CPUIdleAwakeW
	if got := r.meter.InstantPowerOfW(10); got != want {
		t.Fatalf("draw after load drop = %v, want %v (single-item price)", got, want)
	}
}

func TestDVFSZeroAlphaIsFlat(t *testing.T) {
	r := newDVFSRig(0)
	p := r.fw.NewProcess(10)
	q := r.fw.NewProcess(20)
	r.hold(10)
	p.RunWork(10*time.Second, nil)
	q.RunWork(10*time.Second, nil)
	r.engine.RunUntil(time.Second)
	want := device.PixelXL.CPUActiveW + device.PixelXL.CPUIdleAwakeW
	if got := r.meter.InstantPowerOfW(10); got != want {
		t.Fatalf("flat model draw = %v, want %v", got, want)
	}
}

func TestDVFSEnergyConservation(t *testing.T) {
	// The DVFS model must still integrate consistently: total energy of two
	// overlapping items exceeds the flat model by exactly alpha per
	// overlapped second per item.
	flat := newDVFSRig(0)
	dvfs := newDVFSRig(0.3)
	for _, r := range []*rig{flat, dvfs} {
		p := r.fw.NewProcess(10)
		q := r.fw.NewProcess(20)
		r.hold(10)
		p.RunWork(10*time.Second, nil)
		q.RunWork(10*time.Second, nil)
		r.engine.RunUntil(time.Minute)
	}
	flatJ := flat.meter.EnergyOfJ(10) + flat.meter.EnergyOfJ(20)
	dvfsJ := dvfs.meter.EnergyOfJ(10) + dvfs.meter.EnergyOfJ(20)
	// 2 items × 10 s × 0.3 × 0.9 W = 5.4 J extra.
	wantExtra := 5.4
	if diff := (dvfsJ - flatJ) - wantExtra; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("DVFS extra energy = %v, want %v", dvfsJ-flatJ, wantExtra)
	}
}

// TestKillLeavesExactZeros: a process's running items share its one slot
// per kind, each adding and taking back a DVFS-repriced share. Kill pauses
// them all and releases the slots, which keep no sum of their own, so the
// owner must read exactly 0 W with no slots left for ClearOwner.
func TestKillLeavesExactZeros(t *testing.T) {
	r := newDVFSRig(0.3)
	p := r.fw.NewProcess(10)
	q := r.fw.NewProcess(20)
	r.hold(20)
	for i := 1; i <= 7; i++ {
		p.RunWork(time.Duration(i)*1300*time.Millisecond, nil)
		q.RunWork(time.Duration(i)*900*time.Millisecond, nil)
		p.NetworkRequest(time.Duration(i)*700*time.Millisecond, nil)
	}
	r.engine.RunUntil(3100 * time.Millisecond) // some done, most repriced
	if got := r.meter.DrawCount(10); got != 2 {
		t.Fatalf("uid 10 runs CPU and network work through %d slots, want 2", got)
	}
	p.Kill()
	if got := r.meter.InstantPowerOfW(10); got != 0 {
		t.Fatalf("draw after kill = %v W, want exactly 0", got)
	}
	if got := r.meter.DrawCount(10); got != 0 {
		t.Fatalf("%d draw slots after kill, want 0", got)
	}
	r.engine.RunUntil(time.Minute) // q's work finishes alone
	if got, want := r.meter.InstantPowerOfW(20), device.PixelXL.CPUIdleAwakeW; !almost(got, want) {
		t.Fatalf("uid 20 draws %v W with only its wakelock left, want %v", got, want)
	}
	q.Kill()
	if got := r.meter.InstantPowerOfW(20); got != 0 {
		t.Fatalf("draw after kill = %v W, want exactly 0", got)
	}
}

// TestBacklogRunsOutAsASlotPerItem: 8000 items run to completion through
// one slot per kind, at a flat price and DVFS-repriced on every start and
// completion, so the meter takes millions of deltas whose float sum does not
// come back to exactly zero. Nothing may panic, Kill leaves no slots, and
// the owner's draw, the device's, and both energies equal, as float bits,
// what a meter slot per item gave (the want values were taken from that
// design), float drift included.
func TestBacklogRunsOutAsASlotPerItem(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		want  [5]uint64 // owner W when done, owner W, device W, owner J, device J after Kill
	}{
		{0, [5]uint64{0x3f9eb851eb869e00, 0x0, 0x3f80624dd2f2fe90, 0x40ae3e954c98687f, 0x40ae782ee631fc3f}},
		{0.0001, [5]uint64{0x3f9eb85205a26a00, 0x3e1a1d4b48000000, 0x3f80624e072a9690, 0x40b69cbab9cb4d83, 0x40b6b98786981762}},
	} {
		r := newDVFSRig(tc.alpha)
		p := r.fw.NewProcess(10)
		for i := 0; i < 8000; i++ {
			p.RunWork(time.Duration(1+i*7919%997)*time.Millisecond, nil)
			if i%3 == 0 {
				p.NetworkRequest(time.Duration(1+i*104729%1009)*time.Millisecond, nil)
			}
		}
		r.hold(10)
		r.engine.RunUntil(time.Hour)
		done := r.meter.InstantPowerOfW(10)
		p.Kill()
		if got := r.meter.DrawCount(10); got != 0 {
			t.Fatalf("alpha %v: %d draw slots after kill, want 0", tc.alpha, got)
		}
		got := [5]uint64{math.Float64bits(done), math.Float64bits(r.meter.InstantPowerOfW(10)),
			math.Float64bits(r.meter.InstantPowerW()), math.Float64bits(r.meter.EnergyOfJ(10)), math.Float64bits(r.meter.EnergyJ())}
		if got != tc.want {
			t.Fatalf("alpha %v: figures %#x, want %#x", tc.alpha, got, tc.want)
		}
	}
}
