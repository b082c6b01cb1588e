package loadgen

import (
	"math/rand"
	"time"
)

// backoff paces retries: exponential growth with full jitter, bounded by
// max, and never shorter than the server's Retry-After hint. Full jitter
// (uniform in (0, 2^n·base]) is what keeps a fleet of clients that all lost
// the same daemon from stampeding it in lockstep when it returns.
type backoff struct {
	base, max time.Duration
	rng       *rand.Rand
	attempt   int
}

// The backoff a client retries under: its first pause is at most
// retryBase, and no pause exceeds retryMax.
const (
	retryBase = 25 * time.Millisecond
	retryMax  = time.Second
)

func newBackoff(base, max time.Duration, rng *rand.Rand) backoff {
	return backoff{base: base, max: max, rng: rng}
}

func (b *backoff) reset() { b.attempt = 0 }

// next returns the pause before the following retry. retryAfter is the
// server's Retry-After hint (zero if absent); the pause is at least that,
// because a shed server said exactly when it wants to hear from us again.
func (b *backoff) next(retryAfter time.Duration) time.Duration {
	ceil := b.base << b.attempt
	if ceil <= 0 || ceil > b.max {
		ceil = b.max
	}
	b.attempt++
	d := time.Duration(b.rng.Int63n(int64(ceil))) + 1
	if retryAfter > d {
		d = retryAfter
	}
	if d > b.max {
		d = b.max
	}
	return d
}
