package cluster

import "kloc/internal/sim"

// BreakerState is one circuit-breaker state.
type BreakerState uint8

// The circuit breaker's three states.
const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the backend is presumed down; requests are refused
	// without being sent until the cooloff expires.
	BreakerOpen
	// BreakerHalfOpen: the cooloff expired; a bounded number of probe
	// requests test the backend. One success closes the breaker, one
	// failure reopens it.
	BreakerHalfOpen
)

// String names the state for traces and reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// The per-backend circuit breaker's tuning.
const (
	// breakerFailThreshold is the consecutive-failure count that opens
	// the breaker.
	breakerFailThreshold = 5
	// breakerCooloff is how long the breaker stays open before
	// admitting half-open probes.
	breakerCooloff = sim.Millisecond
	// BreakerProbeBudget bounds concurrent trial requests while
	// half-open.
	BreakerProbeBudget = 1
)

// Breaker is a per-backend circuit breaker: closed → open after
// breakerFailThreshold consecutive failures, open → half-open after
// breakerCooloff, half-open → closed on a probe success or back to open
// on a probe failure. Time is passed in explicitly (virtual time), so
// the type is directly unit-testable without an engine.
type Breaker struct {
	state  BreakerState
	fails  int
	until  sim.Time // while open: when half-open probes are admitted
	probes int      // while half-open: outstanding trial requests
	// gen counts state transitions; probe tokens from a previous
	// generation are stale and must not release a current probe slot.
	gen uint64

	// Opens counts closed/half-open → open transitions; Closes counts
	// half-open → closed transitions.
	Opens, Closes uint64
}

// newBreaker builds a closed breaker.
func newBreaker() *Breaker {
	// gen starts at 1 so a zero probe token always means "no slot held".
	return &Breaker{gen: 1}
}

// State reports the current state, transitioning open → half-open if
// the cooloff has expired by now.
func (b *Breaker) State(now sim.Time) BreakerState {
	if b.state == BreakerOpen && now >= b.until {
		b.state = BreakerHalfOpen
		b.probes = 0
		b.gen++
	}
	return b.state
}

// Allow reports whether a request may be routed to this backend at
// virtual time now. It does not consume half-open probe budget — call
// OnDispatch when a request is actually sent.
func (b *Breaker) Allow(now sim.Time) bool {
	switch b.State(now) {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return b.probes < BreakerProbeBudget
	default:
		return false
	}
}

// Probes reports the outstanding half-open probe count (oracle hook:
// with no attempts in flight it must be zero, or a probe token leaked).
func (b *Breaker) Probes() int { return b.probes }

// OnDispatch records that a request was sent to the backend,
// consuming one half-open probe slot if applicable. The returned
// token is non-zero when a slot was consumed; an attempt abandoned
// without an outcome (a cancelled hedge leg) must pass it to
// OnCancel, or the slot would stay consumed forever and pin the
// breaker half-open with Allow refusing every future dispatch.
func (b *Breaker) OnDispatch(now sim.Time) uint64 {
	if b.State(now) == BreakerHalfOpen {
		b.probes++
		return b.gen
	}
	return 0
}

// OnCancel releases the half-open probe slot identified by a token
// from OnDispatch: the attempt was abandoned with no outcome to
// report, so its slot goes back to the probe budget. Zero and stale
// tokens (the breaker transitioned since the dispatch, resetting the
// probe count) are ignored.
func (b *Breaker) OnCancel(now sim.Time, token uint64) {
	if token != 0 && b.State(now) == BreakerHalfOpen && token == b.gen && b.probes > 0 {
		b.probes--
	}
}

// OnSuccess records a request outcome: a half-open probe success
// closes the breaker; any success resets the failure streak.
func (b *Breaker) OnSuccess(now sim.Time) {
	switch b.State(now) {
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.fails = 0
		b.probes = 0
		b.gen++
		b.Closes++
	default:
		b.fails = 0
	}
}

// OnFailure records a failed request: a half-open probe failure
// reopens immediately; the breakerFailThreshold-th consecutive failure
// while closed opens the breaker.
func (b *Breaker) OnFailure(now sim.Time) {
	switch b.State(now) {
	case BreakerHalfOpen:
		b.open(now)
	case BreakerClosed:
		b.fails++
		if b.fails >= breakerFailThreshold {
			b.open(now)
		}
	}
}

func (b *Breaker) open(now sim.Time) {
	b.state = BreakerOpen
	b.until = now.Add(breakerCooloff)
	b.fails = 0
	b.probes = 0
	b.gen++
	b.Opens++
}
