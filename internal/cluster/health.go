package cluster

import (
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// The balancer's active health checker's tuning.
const (
	// healthInterval is the period between probes of each machine.
	healthInterval = 500 * sim.Microsecond
	// healthFailAfter consecutive probe failures eject the machine from
	// the routable set.
	healthFailAfter = 2
	// healthReadmitAfter consecutive probe successes re-admit it.
	healthReadmitAfter = 2
)

// healthChecker actively probes every machine on a fixed period and
// maintains the balancer's routable set: healthFailAfter consecutive
// failed probes eject a machine, healthReadmitAfter successes bring it
// back. Probes consult the machine's fault plane, so a scheduled crash
// on an idle machine is discovered within one probe period.
type healthChecker struct {
	c    *Cluster
	fail []int // consecutive failed probes per machine
	ok   []int // consecutive successful probes per machine
}

func newHealthChecker(c *Cluster) *healthChecker {
	return &healthChecker{
		c:    c,
		fail: make([]int, len(c.machines)),
		ok:   make([]int, len(c.machines)),
	}
}

// start schedules the probe loops, staggered one microsecond apart so
// probes of different machines never tie in the event queue.
func (h *healthChecker) start(e *sim.Engine, at sim.Time) {
	for i, m := range h.c.machines {
		i, m := i, m
		var probe sim.Func
		probe = func(e *sim.Engine) {
			h.probe(e, i, m)
			e.After(healthInterval, probe)
		}
		e.Schedule(at.Add(sim.Duration(i)), probe)
	}
}

// probe checks one machine: a probe succeeds iff the machine is up.
func (h *healthChecker) probe(e *sim.Engine, i int, m *machine) {
	m.consultPlane(e)
	if m.up {
		h.ok[i]++
		h.fail[i] = 0
		if !m.healthy && h.ok[i] >= healthReadmitAfter {
			m.healthy = true
			if h.c.measuring {
				h.c.stats.Readmissions++
			}
			h.c.tr.Emit(trace.MachineHealth, e.Now(), 0, uint64(i), "up", i, int64(h.ok[i]))
		}
		return
	}
	h.fail[i]++
	h.ok[i] = 0
	if m.healthy && h.fail[i] >= healthFailAfter {
		m.healthy = false
		if h.c.measuring {
			h.c.stats.Ejections++
		}
		h.c.tr.Emit(trace.MachineHealth, e.Now(), 0, uint64(i), "down", i, int64(h.fail[i]))
	}
}
