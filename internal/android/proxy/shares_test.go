package proxy

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/simclock"
)

// TestSharesMatchRecount moves one vote at a time, as the Table does, and
// after each move compares what Split and Each left in the meter against a
// recount over the votes from scratch — what every service did on every
// change before Shares existed.
func TestSharesMatchRecount(t *testing.T) {
	const total, each = 0.25, 0.01
	e := simclock.NewEngine()
	m := power.NewMeter(e)
	var split, flat Shares
	rng := rand.New(rand.NewSource(1))
	uids := []power.UID{3, 7, 7, 7, 12, 12, 40, 41, 41, 90} // one entry per object
	voting := make([]bool, len(uids))

	for step := 0; step < 5000; step++ {
		i := rng.Intn(len(uids))
		voting[i] = !voting[i]
		split.move(uids[i], voting[i])
		flat.move(uids[i], voting[i])
		split.Split(m, power.GPS, "gps", total)
		flat.Each(m, power.Sensor, "sensor", each)
		e.RunUntil(e.Now() + time.Millisecond)

		cnt := map[power.UID]int{}
		n := 0
		for j, uid := range uids {
			if voting[j] {
				cnt[uid]++
				n++
			}
		}
		if split.N() != n {
			t.Fatalf("step %d: N = %d, recount %d", step, split.N(), n)
		}
		var holders []power.UID
		for uid := range cnt {
			holders = append(holders, uid)
		}
		slices.Sort(holders)
		var got []power.UID
		for _, h := range split.holders {
			got = append(got, h.uid)
		}
		if !slices.Equal(got, holders) {
			t.Fatalf("step %d: holders %v, recount %v", step, got, holders)
		}
		for _, uid := range []power.UID{3, 7, 12, 40, 41, 90} {
			want := 0.0
			if c := cnt[uid]; c > 0 {
				want = total*float64(c)/float64(n) + each
			}
			// The meter keeps an owner's watts as a running sum of deltas,
			// so it agrees with the recount to rounding, not to the bit.
			if got := m.InstantPowerOfW(uid); math.Abs(got-want) > 1e-12 {
				t.Fatalf("step %d: uid %d draws %v, recount says %v", step, uid, got, want)
			}
		}
	}

	split.Reset()
	if split.N() != 0 || len(split.holders) != 0 || split.hasLeft {
		t.Fatalf("Reset left %+v", split)
	}
}
