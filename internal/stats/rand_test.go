package stats

import (
	"math"
	"math/rand"
	"testing"
)

// streamDraws is how many draws from the source each seed's comparison makes
// at least: past two full turns of the 607-word register, so every word is
// read once as computed from the seed and again as a sum.
const streamDraws = 1300

// sameStream draws from want and got through every method the repository
// calls, in rotation, until want's source has served at least n draws, and
// reports the first method whose answers differ.
func sameStream(t *testing.T, want, got *rand.Rand, n int, label string, seed int64) {
	t.Helper()
	for step, served := 0, 0; served < n; step++ {
		var w, g uint64
		switch step % 6 {
		case 0:
			w, g = want.Uint64(), got.Uint64()
			served++
		case 1:
			w, g = uint64(want.Int63()), uint64(got.Int63())
			served++
		case 2: // Int31n's path, one draw unless rejected
			k := 1 + step%1000
			w, g = uint64(want.Intn(k)), uint64(got.Intn(k))
			served++
		case 3: // Int63n's path, past int32's range
			k := 1<<40 + step
			w, g = uint64(want.Intn(k)), uint64(got.Intn(k))
			served++
		case 4:
			w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
			served++
		case 5:
			k := 2 + step%7
			pw, pg := want.Perm(k), got.Perm(k)
			for i := range pw {
				if pw[i] != pg[i] {
					t.Fatalf("%s seed %d: Perm(%d) at step %d is %v, math/rand's %v", label, seed, k, step, pg, pw)
				}
			}
			served += k - 1
			continue
		}
		if w != g {
			t.Fatalf("%s seed %d: draw at step %d (method %d) is %#x, math/rand's %#x", label, seed, step, step%6, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand is the differential test of NewRand's source
// against math/rand's own, on whatever Go release runs it: the seeds Seed
// folds specially (zero, negatives, multiples of 2³¹−1 and their neighbours,
// the int64 extremes), 10 000 seeds spread over all of int64, each two
// register turns deep through Uint64, Int63, Intn, Float64 and Perm, and a
// re-Seed in the middle of a stream.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, int32max + 1, int32max - 1,
		-int32max - 1, -int32max + 1, 1 << 31, 1 << 32, -1 << 32,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
	}
	x := uint64(0x243F6A8885A308D3)
	for len(seeds) < 10000+24 {
		x += 0x9E3779B97F4A7C15
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		// Every width: small, 32-bit, and full 64-bit, of either sign.
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(z)%1000-500)
		case 1:
			seeds = append(seeds, int64(int32(z)))
		default:
			seeds = append(seeds, int64(z))
		}
	}
	for _, seed := range seeds {
		sameStream(t, rand.New(rand.NewSource(seed)), NewRand(seed), streamDraws, "fresh", seed)
	}

	// Re-seeding mid-stream — a fleet worker's generator, once a device — must
	// forget everything: the rest is the new seed's stream from its start.
	want, got := rand.New(rand.NewSource(7)), NewRand(7)
	for i, seed := range seeds[:200] {
		sameStream(t, want, got, 1+i*7%(2*streamDraws), "before re-seed", seed)
		want.Seed(seed)
		got.Seed(seed)
		sameStream(t, want, got, streamDraws, "re-seeded", seed)
	}
}

// BenchmarkReseed is what a fleet worker pays per device to seed its
// generator and draw a device's handful of numbers: math/rand's source fills
// its whole register on Seed; NewRand's fills the words the draws read.
func BenchmarkReseed(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{{"math-rand", rand.New(rand.NewSource(0))}, {"lazy", NewRand(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.r.Seed(int64(i))
				for k := 0; k < 6; k++ {
					bc.r.Int63()
				}
			}
		})
	}
}
