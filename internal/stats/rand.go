package stats

import "math/rand"

// NewRand returns a deterministic random source for the given seed.
// Every randomised workload in this repository derives its randomness from
// one of these so that experiments are reproducible run-to-run. It yields
// the stream rand.New(rand.NewSource(seed)) yields, draw for draw, for every
// seed and every method, re-Seed included (TestLazySourceMatchesMathRand); only
// seeding is cheaper: O(1), where math/rand's runs 1 841 steps of arithmetic
// to fill a register a fleet device reads twelve words of.
func NewRand(seed int64) *rand.Rand {
	src := new(lazySource)
	src.Seed(seed)
	return rand.New(src)
}

// The generator's shape, as math/rand's rng.go names it.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// lehmerA is the multiplier of the Lehmer generator x ← A·x mod (2³¹−1)
// math/rand seeds its register with.
const lehmerA = 48271

// cookPow[3i+k] is lehmerA^(21+3i+k) mod (2³¹−1): math/rand's Seed steps the
// Lehmer generator 20 times, then three times for each register word, so word
// i's three parts are the seed times these powers.
var cookPow = func() (p [3 * rngLen]uint32) {
	x := uint64(1)
	for j := 1; j < 21; j++ {
		x = x * lehmerA % int32max
	}
	for j := range p {
		x = x * lehmerA % int32max
		p[j] = uint32(x)
	}
	return p
}()

// lazySource is math/rand's additive lagged Fibonacci generator (its
// rngSource, after Mitchell and Reeds) with the register filled on demand. A
// draw adds the words at the feed and the tap and stores the sum at the feed;
// a word not yet read since Seed is computed when first read, from the seed
// in closed form, instead of all 607 of them at Seed. Seed clears a bitmap.
type lazySource struct {
	tap, feed int
	seed      uint64 // the Lehmer generator's start, in [1, 2³¹−2]
	vec       [rngLen]int64
	ready     [(rngLen + 63) / 64]uint64 // bit i: vec[i] is current
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.ready = [len(s.ready)]uint64{}
}

// word returns register word i, computing it first if Seed left it unread.
func (s *lazySource) word(i int) int64 {
	if s.ready[i>>6]&(1<<(i&63)) == 0 {
		s.ready[i>>6] |= 1 << (i & 63)
		p := cookPow[3*i : 3*i+3]
		u := int64(uint64(p[0])*s.seed%int32max) << 40
		u ^= int64(uint64(p[1])*s.seed%int32max) << 20
		u ^= int64(uint64(p[2]) * s.seed % int32max)
		s.vec[i] = u ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next 64 bits of the stream.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw as a non-negative int64.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
