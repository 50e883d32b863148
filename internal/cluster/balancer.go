package cluster

import (
	"kloc/internal/fault"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// request is one open-loop client request from arrival to resolution
// (success, final failure, or shed).
type request struct {
	lb      *balancer
	id      uint64
	group   uint64 // KLOC context group (Zipf-drawn client/tenant id)
	arrived sim.Time
	// rng drives this request's retry jitter. Its seed is drawn from the
	// client stream at arrival, so retry schedules are per-request
	// streams, but the stream is built only at the first retry: most
	// requests never retry.
	seed uint64
	rng  *sim.RNG

	attempts int
	hedged   bool
	done     bool
	inWindow bool // arrived during a configured fault window
	// measured: the request arrived inside the measured window; only
	// these touch the run's counters (warmup stragglers resolving after
	// the window opens would otherwise skew them).
	measured bool

	// inflight lists the dispatched, unsettled attempts. It starts on
	// legs, which holds a primary and its hedge, the most a request has
	// in flight at once.
	inflight []*attempt
	legs     [2]*attempt
	// last is the machine the pending retry steers away from (nil when
	// the failure named none).
	last    *machine
	hedgeEv sim.Handle
	retryEv sim.Handle
}

// The balancer's timers fire on the request or attempt they belong to,
// so arming one allocates nothing. Each type names one timer.
type (
	// hedgeTimer launches the request's hedge (hedgeFire).
	hedgeTimer request
	// retryTimer dispatches the request's pending retry.
	retryTimer request
	// timeoutTimer abandons the attempt at its deadline (onTimeout).
	timeoutTimer attempt
)

func (t *hedgeTimer) Fire(e *sim.Engine) {
	req := (*request)(t)
	req.lb.hedgeFire(e, req)
}

func (t *retryTimer) Fire(e *sim.Engine) {
	req := (*request)(t)
	if req.done {
		return
	}
	req.lb.dispatch(e, req, req.last, false)
}

func (t *timeoutTimer) Fire(e *sim.Engine) {
	at := (*attempt)(t)
	at.req.lb.onTimeout(e, at)
}

// attempt is one dispatch of a request to one machine.
type attempt struct {
	req   *request
	m     *machine
	n     int // attempt number (1-based)
	hedge bool

	timeoutEv sim.Handle
	// settled: this attempt's outcome is decided (success, failure,
	// timeout abandonment, hedge loss, crash). The server may still be
	// working on a settled attempt — that shows up as wasted work.
	settled bool
	// started: a worker began serving it (distinguishes wasted service
	// from attempts that died in the queue).
	started bool
	// errno is the service's outcome, recorded when service starts and
	// reported when it completes.
	errno fault.Errno
	// serviceEpoch snapshots the machine epoch at service start so a
	// completion from before a crash cannot corrupt the restarted
	// machine's slot accounting.
	serviceEpoch uint64
	// probe is the half-open probe token from Breaker.OnDispatch
	// (zero when no probe slot was consumed); a cancellation with no
	// outcome must hand it back via Breaker.OnCancel.
	probe uint64
}

// balancer is the cluster front end: admission control with KLOC-aware
// shedding, routing, per-backend circuit breakers, client timeouts,
// capped-jittered retries, and hedged requests.
type balancer struct {
	c        *Cluster
	router   router
	breakers []*Breaker
	// out is the balancer's view of outstanding attempts per machine.
	out []int
	// outstanding counts admitted, unresolved requests (the shed gauge).
	outstanding int
	// affinity maps context group → home machine for the kloc router
	// and the cold-shed admission check. Written only by klocAware.pick;
	// read by key, never iterated.
	affinity map[uint64]int
	// elig is eligible's result, reused by every dispatch.
	elig []*machine

	// admittedAll/resolvedAll count admitted requests and their terminal
	// resolutions over the whole run, warmup included. The chaos
	// engine's conservation oracle checks they match after drain: every
	// admitted request terminates exactly once.
	admittedAll uint64
	resolvedAll uint64
}

func newBalancer(c *Cluster, r router) *balancer {
	b := &balancer{
		c:        c,
		router:   r,
		breakers: make([]*Breaker, len(c.machines)),
		out:      make([]int, len(c.machines)),
		affinity: make(map[uint64]int, groups),
	}
	for i := range b.breakers {
		b.breakers[i] = newBreaker()
	}
	return b
}

// admit applies admission control to a fresh arrival and dispatches it
// or sheds it. KLOC-aware shedding: requests whose context group has a
// home machine (their kernel objects are plausibly hot somewhere) may
// use the full outstanding budget; cold-context requests are shed
// earlier, at hotShedFrac of it — under overload the cluster keeps the
// work it can serve cheaply and refuses the work that would run at
// cold-miss cost.
func (b *balancer) admit(e *sim.Engine, req *request) {
	if req.measured {
		b.c.stats.Arrivals++
		if req.inWindow {
			b.c.stats.FaultArrivals++
		}
	}
	klocRoute := b.router.name() == "kloc"
	cfg := &b.c.cfg
	limit := cfg.Machines * (cfg.Workers + cfg.QueueLimit/2)
	_, hot := b.affinity[req.group]
	if klocRoute && !hot {
		limit = int(float64(limit) * hotShedFrac)
	}
	if b.outstanding >= limit {
		class := "hot"
		if !hot {
			class = "cold"
		}
		if req.measured {
			b.c.stats.Shed++
			if klocRoute && !hot {
				b.c.stats.ShedCold++
			}
		}
		// The shed response is EAGAIN: retryable at the client, but this
		// open-loop client does not retry sheds — shedding exists to keep
		// goodput up, and re-offering the load would undo it.
		req.done = true
		b.c.tr.Emit(trace.LBShed, e.Now(), req.group, req.id, class, -1, int64(b.outstanding))
		return
	}
	b.outstanding++
	b.admittedAll++
	if req.measured {
		b.c.stats.Admitted++
	}
	b.dispatch(e, req, nil, false)
}

// eligible lists machines the router may pick: healthy, breaker-
// admitted, not the excluded one. Ascending id (deterministic). The
// list is valid until the next call.
func (b *balancer) eligible(e *sim.Engine, exclude *machine) []*machine {
	b.elig = b.elig[:0]
	for i, m := range b.c.machines {
		if m == exclude || !m.healthy {
			continue
		}
		if !b.breakers[i].Allow(e.Now()) {
			continue
		}
		b.elig = append(b.elig, m)
	}
	return b.elig
}

// dispatch sends one attempt of the request to a routed machine, arms
// its timeout, and (for first attempts) arms the hedge timer.
func (b *balancer) dispatch(e *sim.Engine, req *request, exclude *machine, hedge bool) {
	elig := b.eligible(e, exclude)
	if len(elig) == 0 && exclude != nil {
		// Nothing else to try; the excluded machine is better than none.
		elig = b.eligible(e, nil)
	}
	if len(elig) == 0 {
		// Total outage from the balancer's view: every machine ejected or
		// breaker-open. Back off and retry; the breakers' cooloff may
		// re-admit someone.
		b.retryOrFail(e, req, nil, fault.EAGAIN)
		return
	}
	m := b.router.pick(b, req, elig, hedge)
	req.attempts++
	at := &attempt{req: req, m: m, n: req.attempts, hedge: hedge}
	req.inflight = append(req.inflight, at)
	b.out[m.id]++
	at.probe = b.breakers[m.id].OnDispatch(e.Now())
	class := "cold"
	if m.hotHas(req.group) {
		class = "hot"
	}
	b.c.tr.Emit(trace.LBRoute, e.Now(), req.group, req.id, class, m.id, int64(at.n))
	if !hedge && !req.hedged && b.c.cfg.HedgeAfter > 0 {
		req.hedgeEv = e.After(b.c.cfg.HedgeAfter, (*hedgeTimer)(req))
	}
	at.timeoutEv = e.After(timeout, (*timeoutTimer)(at))
	m.consultPlane(e)
	m.enqueue(e, at)
}

// hedgeFire launches a hedged duplicate if the request is still
// waiting on exactly its primary attempt.
func (b *balancer) hedgeFire(e *sim.Engine, req *request) {
	if req.done || req.hedged || len(req.inflight) != 1 {
		return
	}
	req.hedged = true
	if req.measured {
		b.c.stats.Hedges++
	}
	b.c.tr.Emit(trace.LBHedge, e.Now(), req.group, req.id, "hedge", req.inflight[0].m.id, int64(req.attempts))
	b.dispatch(e, req, req.inflight[0].m, true)
}

// onTimeout abandons an attempt whose deadline expired: the client
// stops waiting (the server may still be serving it — wasted work) and
// the request retries elsewhere.
func (b *balancer) onTimeout(e *sim.Engine, at *attempt) {
	if at.settled || at.req.done {
		return
	}
	at.settled = true
	if at.req.measured {
		b.c.stats.Timeouts++
	}
	b.unlink(e, at)
	if len(at.req.inflight) > 0 {
		return // a hedge is still in flight; let it race the retry path
	}
	b.retryOrFail(e, at.req, at.m, fault.ETIMEDOUT)
}

// attemptFailed resolves one attempt as failed (connection refused,
// queue reject, server errno, crash) and retries the request if it has
// budget left.
func (b *balancer) attemptFailed(e *sim.Engine, at *attempt, errno fault.Errno) {
	if at.settled || at.req.done {
		return
	}
	at.settled = true
	b.unlink(e, at)
	if len(at.req.inflight) > 0 {
		return // the other hedge leg is still running
	}
	b.retryOrFail(e, at.req, at.m, errno)
}

// attemptSucceeded resolves the whole request: the winning attempt
// reports success, every other leg is cancelled (its service, if any,
// becomes wasted work).
func (b *balancer) attemptSucceeded(e *sim.Engine, at *attempt) {
	if at.settled || at.req.done {
		return
	}
	req := at.req
	at.settled = true
	b.c.eng.Cancel(at.timeoutEv)
	b.out[at.m.id]--
	b.breakerResult(e, at.m.id, true)
	for _, other := range req.inflight {
		if other == at || other.settled {
			continue
		}
		other.settled = true
		b.c.eng.Cancel(other.timeoutEv)
		if b.c.cfg.Bug != BugHedgeSlotLeak {
			b.out[other.m.id]--
		}
		// The losing leg reports no outcome, but a half-open probe slot
		// it consumed must be released or its breaker would refuse every
		// future dispatch and the machine would drop out of routing.
		if b.c.cfg.Bug != BugProbeLeak {
			b.breakers[other.m.id].OnCancel(e.Now(), other.probe)
		}
	}
	req.inflight = req.inflight[:0]
	b.c.eng.Cancel(req.hedgeEv)
	b.c.eng.Cancel(req.retryEv)
	req.done = true
	b.outstanding--
	b.resolvedAll++
	if !req.measured {
		return
	}
	b.c.stats.Completed++
	if at.hedge {
		b.c.stats.HedgeWins++
	}
	if req.inWindow {
		b.c.stats.FaultCompleted++
	}
	b.c.lat.Observe(float64(e.Now().Sub(req.arrived)))
}

// unlink detaches a settled attempt from its request and machine and
// feeds the failure to the machine's breaker.
func (b *balancer) unlink(e *sim.Engine, at *attempt) {
	b.c.eng.Cancel(at.timeoutEv)
	b.out[at.m.id]--
	b.breakerResult(e, at.m.id, false)
	req := at.req
	for i, other := range req.inflight {
		if other == at {
			req.inflight = append(req.inflight[:i], req.inflight[i+1:]...)
			break
		}
	}
}

// retryOrFail schedules another attempt after backoff, or fails the
// request for good once the attempt budget is spent.
func (b *balancer) retryOrFail(e *sim.Engine, req *request, last *machine, errno fault.Errno) {
	if req.done {
		return
	}
	if len(req.inflight) > 0 {
		// A dispatch that found no eligible machine (a hedge or retry
		// landing while every backend looks down) falls through here with
		// another leg still in flight. Failing or re-arming now would
		// race that leg — when it later succeeded, the request would
		// already be marked failed and its slot accounting skewed for
		// good. Let the in-flight leg resolve and drive the retry.
		return
	}
	if req.attempts >= maxAttempts {
		req.done = true
		b.outstanding--
		b.resolvedAll++
		b.c.eng.Cancel(req.hedgeEv)
		b.c.eng.Cancel(req.retryEv)
		if req.measured {
			b.c.stats.Failed++
			if errno == fault.ETIMEDOUT {
				b.c.stats.FailedTimeout++
			}
		}
		return
	}
	if req.rng == nil {
		req.rng = sim.NewRNG(req.seed)
	}
	delay := backoff(req.attempts, req.rng)
	if req.measured {
		b.c.stats.Retries++
	}
	node := -1
	if last != nil {
		node = last.id
	}
	b.c.tr.Emit(trace.LBRetry, e.Now(), req.group, req.id, errno.String(), node, int64(req.attempts))
	b.c.eng.Cancel(req.retryEv)
	req.last = last
	req.retryEv = e.After(delay, (*retryTimer)(req))
}

// breakerResult feeds an outcome to a machine's breaker and emits a
// trace event when the breaker changes state.
func (b *balancer) breakerResult(e *sim.Engine, id int, ok bool) {
	br := b.breakers[id]
	before := br.State(e.Now())
	if ok {
		br.OnSuccess(e.Now())
	} else {
		br.OnFailure(e.Now())
	}
	after := br.State(e.Now())
	if after != before {
		if b.c.measuring {
			switch after {
			case BreakerOpen:
				b.c.stats.BreakerOpens++
			case BreakerClosed:
				b.c.stats.BreakerCloses++
			}
		}
		b.c.tr.Emit(trace.LBBreaker, e.Now(), 0, uint64(id), after.String(), id, 0)
	}
}
