package cluster

import (
	"slices"

	"kloc/internal/fault"
	"kloc/internal/kernel"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// machine is one simulated backend: a complete kernel + memory +
// fs/net stack running one workload instance, sharing the cluster's
// single virtual clock. Requests queue at the machine and are served
// by a bounded worker pool; each served request runs one workload step
// on the machine's kernel and pays the step's virtual cost, scaled up
// when the request's KLOC context group is cold on this machine or
// when the machine's fast tier is degraded.
type machine struct {
	id int
	c  *Cluster
	k  *kernel.Kernel
	wl workload.Workload
	// rng is this machine's private stream (forked per machine by the
	// cluster); only this machine draws from it.
	rng *sim.RNG

	// plane drives this machine's crash/degrade schedule (nil-safe).
	plane *fault.Plane

	up       bool
	healthy  bool // health checker's view; balancer routes only to healthy
	degraded bool
	// epoch invalidates in-flight completions across a crash: a service
	// completion whose epoch no longer matches arrived from before the
	// crash and must not touch the restarted machine's accounting.
	epoch uint64

	workers int
	busy    int
	queue   []*attempt
	serving []*attempt

	// hot is the machine's recently-served KLOC context groups: an LRU
	// of at most hotCap entries. A request whose group misses pays the
	// cold-context penalty (its kernel objects — sockets, dentries,
	// journal state — are not resident in the fast tier).
	hot []uint64
}

// newMachine builds one backend stack. The caller owns scheduling;
// nothing runs until the cluster starts the kernel daemons.
func newMachine(cfg Config, eng *sim.Engine, id int, rng *sim.RNG) (*machine, error) {
	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(cfg.ScaleDiv))
	pol, err := policy.ByName(PolicyName)
	if err != nil {
		return nil, wrapErr("policy", err)
	}
	// One workload thread per worker slot: served requests map onto
	// per-thread workload state (e.g. redis client sockets).
	wl, err := workload.ByName(cfg.Workload, workload.Config{ScaleDiv: cfg.ScaleDiv, Threads: cfg.Workers})
	if err != nil {
		return nil, wrapErr("workload", err)
	}
	k := kernel.New(eng, mem, pol)
	// Fork the workload's stream before the machine takes ownership of
	// rng: after the handoff the machine must be the only reader.
	wlRNG := rng.Fork()
	m := &machine{
		id:      id,
		k:       k,
		wl:      wl,
		rng:     rng,
		up:      true,
		healthy: true,
		workers: cfg.Workers,
	}
	if err := wl.Setup(k, wlRNG); err != nil {
		return nil, wrapErr("setup", err)
	}
	return m, nil
}

// hotTouch reports whether the group was hot and makes it the
// most-recently-served entry, evicting the LRU beyond capacity.
func (m *machine) hotTouch(group uint64) bool {
	for i, g := range m.hot {
		if g == group {
			copy(m.hot[1:i+1], m.hot[:i])
			m.hot[0] = group
			return true
		}
	}
	m.hot = append(m.hot, 0)
	copy(m.hot[1:], m.hot)
	m.hot[0] = group
	if len(m.hot) > hotCap {
		m.hot = m.hot[:hotCap]
	}
	return false
}

// hotHas reports whether the group is hot without touching the LRU
// (the balancer's routing view).
func (m *machine) hotHas(group uint64) bool {
	for _, g := range m.hot {
		if g == group {
			return true
		}
	}
	return false
}

// consultPlane checks this machine's crash/degrade fault points at
// virtual time now. Called at dispatch and at health probes, so a
// scheduled fault fires within one probe period even when idle.
func (m *machine) consultPlane(e *sim.Engine) {
	if m.plane == nil {
		return
	}
	now := e.Now()
	if m.up && m.plane.Check(fault.MachineCrash, now) != 0 {
		m.crash(e)
	}
	if m.up && !m.degraded && m.plane.Check(fault.MachineDegrade, now) != 0 {
		m.degrade(e)
	}
}

// crash takes the machine down: queued and in-flight requests fail
// with EIO, caches go cold, and a cold restart is scheduled after the
// configured downtime.
func (m *machine) crash(e *sim.Engine) {
	if !m.up {
		return
	}
	now := e.Now()
	dropped := len(m.queue)
	m.up = false
	m.epoch++
	m.degraded = false
	m.hot = m.hot[:0]
	if m.c.measuring {
		m.c.stats.Crashes++
	}
	m.c.tr.Emit(trace.MachineCrash, now, 0, uint64(m.id), "crash", m.id, int64(dropped+m.busy))
	// Nothing enqueues or starts service on a down machine, so both
	// lists keep their backing arrays for after the restart.
	queued := m.queue
	inService := m.serving
	m.queue = m.queue[:0]
	m.serving = m.serving[:0]
	m.busy = 0
	for _, at := range queued {
		m.c.lb.attemptFailed(e, at, fault.EIO)
	}
	// In-flight work dies with the machine: the client sees the
	// connection drop now rather than waiting out its timeout.
	for _, at := range inService {
		m.c.lb.attemptFailed(e, at, fault.EIO)
	}
	e.After(m.c.cfg.RestartDelay, sim.Func(m.restart))
}

// restart brings the machine back up with cold caches (the hot set was
// cleared at crash; the kernel's page cache survives in simulation but
// the KLOC hot-context view — what the cold penalty models — does not).
func (m *machine) restart(e *sim.Engine) {
	m.up = true
	if m.c.measuring {
		m.c.stats.Restarts++
	}
	m.c.tr.Emit(trace.MachineCrash, e.Now(), 0, uint64(m.id), "restart", m.id, 0)
}

// degrade slows the machine's fast tier for the configured window: it
// stays up but serves at slow-tier speed.
func (m *machine) degrade(e *sim.Engine) {
	m.degraded = true
	m.c.tr.Emit(trace.MachineHealth, e.Now(), 0, uint64(m.id), "degrade", m.id, 0)
	e.After(m.c.cfg.DegradeFor, sim.Func(func(e *sim.Engine) {
		if m.degraded {
			m.degraded = false
			m.c.tr.Emit(trace.MachineHealth, e.Now(), 0, uint64(m.id), "recover", m.id, 0)
		}
	}))
}

// enqueue accepts a dispatched attempt, or fails it fast: a down
// machine refuses connections, a full queue rejects.
func (m *machine) enqueue(e *sim.Engine, at *attempt) {
	if !m.up {
		if at.req.measured {
			m.c.stats.ConnRefused++
		}
		m.c.lb.attemptFailed(e, at, fault.EIO)
		return
	}
	if len(m.queue) >= m.c.cfg.QueueLimit {
		if at.req.measured {
			m.c.stats.QueueRejects++
		}
		m.c.lb.attemptFailed(e, at, fault.EAGAIN)
		return
	}
	m.queue = append(m.queue, at)
	m.maybeServe(e)
}

// maybeServe starts service on queued attempts while worker slots are
// free, skipping attempts already settled (timed out, hedge-lost).
func (m *machine) maybeServe(e *sim.Engine) {
	for m.up && m.busy < m.workers && len(m.queue) > 0 {
		at := m.queue[0]
		m.queue = slices.Delete(m.queue, 0, 1)
		if at.settled || at.req.done {
			continue
		}
		m.startService(e, at)
	}
}

// startService runs one workload step for the attempt and schedules
// its completion after the step's virtual cost, scaled by the
// cold-context penalty and any fast-tier degradation.
func (m *machine) startService(e *sim.Engine, at *attempt) {
	slot := m.busy
	m.busy++
	at.started = true
	at.serviceEpoch = m.epoch
	m.serving = append(m.serving, at)
	hot := m.hotTouch(at.req.group)
	cost, errno, err := m.step(e, slot)
	if err != nil {
		m.c.fatal(e, err)
		return
	}
	if !hot {
		cost = sim.Duration(float64(cost) * coldPenalty)
		if at.req.measured {
			m.c.stats.ColdServed++
		}
	} else if at.req.measured {
		m.c.stats.HotServed++
	}
	if m.degraded {
		cost = sim.Duration(float64(cost) * m.c.cfg.DegradeFactor)
	}
	at.errno = errno
	e.After(cost, (*serviceDone)(at))
}

// serviceDone is an attempt's service-completion timer.
type serviceDone attempt

func (t *serviceDone) Fire(e *sim.Engine) {
	at := (*attempt)(t)
	at.m.complete(e, at)
}

// step executes one workload operation on a worker slot and returns
// its virtual cost. Errno-style failures degrade the request (the
// client sees a retryable server error); anything else is a harness
// bug and aborts the run.
func (m *machine) step(e *sim.Engine, slot int) (sim.Duration, fault.Errno, error) {
	thread := slot % m.wl.Threads()
	ctx := m.k.NewCtx(thread)
	err := m.wl.Step(m.k, ctx, thread, m.rng)
	cost := ctx.Cost
	// The op has retired and nothing downstream retains ctx, so it can
	// go back to the pool.
	m.k.PutCtx(ctx)
	if cost < 100 {
		cost = 100
	}
	if err != nil {
		if errno, ok := fault.AsErrno(err); ok {
			if m.c.measuring {
				m.c.stats.ServerErrors++
			}
			return cost, errno, nil
		}
		return cost, 0, err
	}
	return cost, 0, nil
}

// complete finishes one service: frees the worker slot (unless the
// machine crashed since, which already zeroed it) and resolves the
// attempt with the balancer, by the outcome its service recorded.
func (m *machine) complete(e *sim.Engine, at *attempt) {
	live := at.serviceEpoch == m.epoch && m.up
	if live {
		m.busy--
		for i, s := range m.serving {
			if s == at {
				m.serving = append(m.serving[:i], m.serving[i+1:]...)
				break
			}
		}
	}
	if at.settled || at.req.done {
		// The client stopped waiting (timeout, hedge winner elsewhere,
		// crash-failed): the server burned this work for nothing.
		if at.req.measured {
			m.c.stats.WastedWork++
		}
	} else if at.errno != 0 {
		m.c.lb.attemptFailed(e, at, at.errno)
	} else {
		m.c.lb.attemptSucceeded(e, at)
	}
	if live {
		m.maybeServe(e)
	}
}
