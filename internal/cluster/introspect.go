package cluster

import "kloc/internal/sim"

// Introspection is a point-in-time snapshot of the serving plane's
// internal accounting, exposed for the chaos engine's invariant
// oracles (internal/chaos). Slices are indexed by machine id.
type Introspection struct {
	// Now is the virtual time of the snapshot.
	Now sim.Time

	// Outstanding is the balancer's admitted-but-unresolved gauge;
	// AdmittedAll/ResolvedAll its full-run admission and termination
	// counters (conservation: after drain, Outstanding == 0 and
	// AdmittedAll == ResolvedAll).
	Outstanding int
	AdmittedAll uint64
	ResolvedAll uint64

	// Out is the balancer's outstanding-attempt gauge per machine;
	// Busy/Queued/Serving the machines' own views. All must be zero
	// after drain.
	Out     []int
	Busy    []int
	Queued  []int
	Serving []int

	// Up/Healthy/Degraded are the per-machine liveness flags (liveness:
	// once faults stop firing, every machine settles back to up,
	// healthy, and undegraded).
	Up       []bool
	Healthy  []bool
	Degraded []bool

	// BreakerState/BreakerProbes snapshot each machine's circuit
	// breaker (conservation: with nothing in flight, no breaker holds a
	// probe slot; one holding BreakerProbeBudget admits no request).
	BreakerState  []BreakerState
	BreakerProbes []int
}

// Introspect snapshots the serving plane. Call after Run (and
// optionally Settle); it reads balancer and machine state directly,
// so calling it mid-run from outside the event loop is a bug.
func (c *Cluster) Introspect() Introspection {
	n := len(c.machines)
	in := Introspection{
		Now:           c.eng.Now(),
		Outstanding:   c.lb.outstanding,
		AdmittedAll:   c.lb.admittedAll,
		ResolvedAll:   c.lb.resolvedAll,
		Out:           make([]int, n),
		Busy:          make([]int, n),
		Queued:        make([]int, n),
		Serving:       make([]int, n),
		Up:            make([]bool, n),
		Healthy:       make([]bool, n),
		Degraded:      make([]bool, n),
		BreakerState:  make([]BreakerState, n),
		BreakerProbes: make([]int, n),
	}
	copy(in.Out, c.lb.out)
	for i, m := range c.machines {
		in.Busy[i] = m.busy
		in.Queued[i] = len(m.queue)
		in.Serving[i] = len(m.serving)
		in.Up[i] = m.up
		in.Healthy[i] = m.healthy
		in.Degraded[i] = m.degraded
		br := c.lb.breakers[i]
		in.BreakerState[i] = br.State(in.Now)
		in.BreakerProbes[i] = br.Probes()
	}
	return in
}

// Settle resumes a drained run for up to bound additional virtual
// time, stepping at the health-probe interval, until the fleet is
// quiescent: every machine up, healthy, undegraded, and idle, with no
// outstanding requests. It reports whether quiescence was reached —
// the liveness oracle's primitive (a crashed machine must restart and
// be re-admitted; a pinned breaker or leaked slot shows up as a fleet
// that never settles). The run's report is unaffected: Run copied its
// stats before returning.
func (c *Cluster) Settle(bound sim.Duration) bool {
	deadline := c.eng.Now().Add(bound)
	step := healthInterval
	for {
		if c.quiescent() {
			return true
		}
		if c.eng.Now() >= deadline || c.runErr != nil {
			return false
		}
		next := c.eng.Now().Add(step)
		if next > deadline {
			next = deadline
		}
		c.eng.RunUntil(next)
	}
}

// quiescent reports whether the serving plane is fully settled.
func (c *Cluster) quiescent() bool {
	if c.lb.outstanding != 0 {
		return false
	}
	for _, m := range c.machines {
		if !m.up || !m.healthy || m.degraded || m.busy != 0 || len(m.queue) != 0 || len(m.serving) != 0 {
			return false
		}
	}
	return true
}
