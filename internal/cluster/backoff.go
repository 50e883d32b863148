package cluster

import "kloc/internal/sim"

// The client retry schedule: capped exponential growth with seeded
// jitter. Jitter is the load-bearing half — after a machine crash every
// in-flight request fails at the same instant, and without jitter their
// retries arrive as a synchronized convoy that re-overloads the next
// backend (the classic retry storm).
const (
	// backoffBase is the nominal first-retry delay.
	backoffBase = 100 * sim.Microsecond
	// backoffCap bounds the grown delay.
	backoffCap = sim.Millisecond
	// backoffMult is the per-attempt growth factor.
	backoffMult = 2
)

// backoff returns the wait before retry number attempt (1-based: the
// delay after the first failed attempt is backoff(1, r)). The grown
// delay d is equal-jittered: the result is uniform in [d/2, d], drawn
// from the caller's seeded stream — same seed, same schedule.
func backoff(attempt int, r *sim.RNG) sim.Duration {
	d := float64(backoffBase)
	for i := 1; i < attempt; i++ {
		d *= backoffMult
		if d >= float64(backoffCap) {
			break
		}
	}
	if d > float64(backoffCap) {
		d = float64(backoffCap)
	}
	half := sim.Duration(d) / 2
	if half < 1 {
		half = 1
	}
	return half + sim.Duration(r.Int63n(int64(half)+1))
}
