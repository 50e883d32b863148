// Package cluster is the simulator's serving plane: a fleet of
// simulated machines — each a complete kernel + tiered-memory + fs/net
// stack — behind a front-end load balancer, driven by an open-loop
// arrival process on the same single virtual clock as everything else.
// It scales the paper's thesis from one kernel to a fleet: placement
// of a request is placement of its kernel objects, so the balancer can
// be KLOC-aware too — routing requests to the machine whose fast tier
// already holds their context's kernel objects, and shedding
// cold-context work first at overload.
//
// The robustness layer is the point: deterministic machine faults
// (crash with cold restart, fast-tier degradation) driven through the
// fault plane, active health checking with ejection and re-admission,
// client timeouts, capped-and-jittered retries, hedged requests,
// per-backend circuit breakers, and admission control. Same seed,
// same byte-identical trace — fault windows included.
package cluster

import (
	"fmt"

	"kloc/internal/fault"
	"kloc/internal/metrics"
	"kloc/internal/sim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// The reintroducible bugs (Config.Bug). Each reverts one fix from the
// serving plane's review history, producing an invariant violation the
// chaos oracles must catch.
const (
	// BugHedgeSlotLeak skips the losing hedge leg's per-machine slot
	// decrement when the winning leg resolves: the balancer's out[]
	// gauge for that machine drifts up forever (the outstanding-count
	// skew class).
	BugHedgeSlotLeak = "hedge-slot-leak"
	// BugProbeLeak skips releasing the losing hedge leg's half-open
	// probe token: the breaker stays pinned half-open with its probe
	// budget exhausted and the machine drops out of routing for good.
	BugProbeLeak = "probe-leak"
)

// The fleet's fixed shape and resilience tuning: every caller ran
// with these values, so they are constants rather than Config fields.
// None is a parameter from the paper.
const (
	// PolicyName is every machine's kernel placement policy.
	PolicyName = "klocs"
	// groups is the number of KLOC context groups (client/tenant
	// identities) requests are drawn from, Zipf-skewed with exponent
	// groupSkew.
	groups    = 64
	groupSkew = 1.2
	// hotCap is each machine's hot-set capacity in groups; a request
	// whose group is cold on its machine pays coldPenalty× its service
	// cost.
	hotCap      = 16
	coldPenalty = 4
	// timeout is the client's per-attempt deadline; maxAttempts bounds
	// dispatches per request, hedges included.
	timeout     = 2 * sim.Millisecond
	maxAttempts = 3
	// hotShedFrac is the fraction of the shed limit available to
	// cold-context requests under the kloc route: overload sheds the
	// expensive work first.
	hotShedFrac = 0.5
)

// Config describes one cluster run.
type Config struct {
	// Machines is the fleet size (default 4).
	Machines int
	// Workers is each machine's service concurrency (default 4).
	Workers int
	// QueueLimit bounds each machine's accept queue (default 64).
	// Admitted-but-unresolved requests are capped at
	// Machines·(Workers+QueueLimit/2); at the cap new arrivals are shed
	// with EAGAIN.
	QueueLimit int

	// Workload is the per-machine serving workload (default "redis");
	// ScaleDiv scales footprints (zero means 64; a negative divisor is
	// EINVAL).
	Workload string
	ScaleDiv int

	// Route selects the balancer policy: "round-robin", "least-loaded",
	// or "kloc" (default "kloc").
	Route string
	// Arrival selects the open-loop arrival shape ("poisson", "bursty",
	// "diurnal"; default "poisson") and Rate its mean requests per
	// virtual second (required).
	Arrival string
	Rate    float64

	// HedgeAfter launches a duplicate of a still-waiting first attempt
	// (default 500 µs; a negative value disables hedging).
	HedgeAfter sim.Duration

	// Faults is an exact-time fault schedule over the full
	// fault.Points() catalog, offsets rebased to the measured start.
	// cluster.crash and cluster.degrade injections hit the targeted
	// machine; every other point arms that machine's kernel-level fault
	// plane. Nil runs without faults. RestartDelay is crash downtime
	// (default 10 ms); DegradeFor the degradation window (default
	// 10 ms); DegradeFactor its service-cost multiplier (default 4).
	Faults        *fault.Schedule
	RestartDelay  sim.Duration
	DegradeFor    sim.Duration
	DegradeFactor float64

	// Bug re-introduces a historical accounting defect so the chaos
	// engine's oracles can be tested against a known-bad fleet. Empty
	// runs correct code; see BugHedgeSlotLeak and BugProbeLeak.
	Bug string

	// Seed drives every stream in the run; Duration is the measured
	// window (default 60 ms); Warmup runs traffic before measurement
	// (default 5 ms).
	Seed     uint64
	Duration sim.Duration
	Warmup   sim.Duration

	// Trace arms the observability plane for cluster events (lb.*,
	// machine.*). Nil runs untraced. The per-machine kernels stay
	// untraced either way: a fleet's kernel event volume would drown
	// the serving-plane signal.
	Trace *trace.Config
}

// WithDefaults resolves every unset field to its default, so callers
// (the harness sweep) can report the effective fleet shape.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.Workload == "" {
		c.Workload = "redis"
	}
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 64
	}
	if c.Route == "" {
		c.Route = "kloc"
	}
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.HedgeAfter < 0 {
		c.HedgeAfter = 0
	} else if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * sim.Microsecond
	}
	if c.RestartDelay <= 0 {
		c.RestartDelay = 10 * sim.Millisecond
	}
	if c.DegradeFor <= 0 {
		c.DegradeFor = 10 * sim.Millisecond
	}
	if c.DegradeFactor < 1 {
		c.DegradeFactor = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Duration <= 0 {
		c.Duration = 60 * sim.Millisecond
	}
	if c.Warmup <= 0 {
		c.Warmup = 5 * sim.Millisecond
	}
	return c
}

// Stats are one run's serving-plane counters.
type Stats struct {
	Arrivals  uint64
	Admitted  uint64
	Completed uint64
	Failed    uint64
	// FailedTimeout is the slice of Failed whose final errno was
	// ETIMEDOUT.
	FailedTimeout uint64
	Shed          uint64
	// ShedCold is the slice of Shed rejected at the cold-context
	// threshold (kloc route only).
	ShedCold uint64

	Retries   uint64
	Timeouts  uint64
	Hedges    uint64
	HedgeWins uint64
	// WastedWork counts completed services whose client had stopped
	// waiting (timeout, hedge lost, crash).
	WastedWork uint64

	// ServerErrors are workload steps that failed with an errno;
	// ConnRefused and QueueRejects are dispatch-time fast failures.
	ServerErrors uint64
	ConnRefused  uint64
	QueueRejects uint64

	BreakerOpens  uint64
	BreakerCloses uint64
	Ejections     uint64
	Readmissions  uint64
	Crashes       uint64
	Restarts      uint64

	// HotServed/ColdServed count services by whether the request's
	// context group was hot on its machine.
	HotServed  uint64
	ColdServed uint64

	// FaultArrivals/FaultCompleted cover requests arriving inside a
	// configured fault window (availability under faults).
	FaultArrivals  uint64
	FaultCompleted uint64
}

// Report is one cluster run's outcome.
type Report struct {
	Route    string
	Arrival  string
	Workload string
	Policy   string
	Machines int
	// Rate is the offered arrival rate (requests per virtual second).
	Rate float64

	Stats Stats

	// Latency quantiles over completed requests (arrival to success).
	MeanLatency sim.Duration
	P50         sim.Duration
	P99         sim.Duration
	MaxLatency  sim.Duration

	// OfferedPerSec is the realized arrival rate; GoodputPerSec the
	// completion rate. Availability is Completed/Arrivals, and
	// FaultAvailability the same restricted to fault-window arrivals
	// (1 when no window was configured).
	OfferedPerSec     float64
	GoodputPerSec     float64
	Availability      float64
	FaultAvailability float64
}

// String renders the report deterministically (replay tests compare
// these bytes across same-seed runs).
func (r *Report) String() string {
	s := &r.Stats
	out := fmt.Sprintf("cluster %s/%s route=%s arrival=%s machines=%d rate=%.0f/s\n",
		r.Workload, r.Policy, r.Route, r.Arrival, r.Machines, r.Rate)
	out += fmt.Sprintf("  arrivals=%d admitted=%d completed=%d failed=%d (timeout=%d) shed=%d (cold=%d)\n",
		s.Arrivals, s.Admitted, s.Completed, s.Failed, s.FailedTimeout, s.Shed, s.ShedCold)
	out += fmt.Sprintf("  retries=%d timeouts=%d hedges=%d hedgewins=%d wasted=%d srverr=%d refused=%d qreject=%d\n",
		s.Retries, s.Timeouts, s.Hedges, s.HedgeWins, s.WastedWork, s.ServerErrors, s.ConnRefused, s.QueueRejects)
	out += fmt.Sprintf("  breaker open=%d close=%d eject=%d readmit=%d crash=%d restart=%d hot=%d cold=%d\n",
		s.BreakerOpens, s.BreakerCloses, s.Ejections, s.Readmissions, s.Crashes, s.Restarts, s.HotServed, s.ColdServed)
	out += fmt.Sprintf("  goodput=%.0f/s offered=%.0f/s avail=%.4f fault-avail=%.4f lat mean=%s p50=%s p99=%s max=%s\n",
		r.GoodputPerSec, r.OfferedPerSec, r.Availability, r.FaultAvailability,
		r.MeanLatency, r.P50, r.P99, r.MaxLatency)
	return out
}

// Cluster is one armed serving-plane run.
type Cluster struct {
	cfg      Config
	eng      *sim.Engine
	machines []*machine
	lb       *balancer
	health   *healthChecker
	arr      workload.Arrival
	tr       *trace.Tracer

	// clientRNG is drawn only by the arrival loop; per-request streams
	// fork from it at admission.
	clientRNG *sim.RNG
	groupZipf *sim.Zipf
	reqIDs    uint64

	// measuring opens at the measured window's start; only requests
	// arriving after that (and fleet events from then on) touch the
	// counters.
	measuring bool
	stats     Stats
	lat       metrics.Distribution
	runErr    error

	// windows are the configured fault windows [from, to) in absolute
	// virtual time, for availability accounting.
	windows [][2]sim.Time
}

// wrapErr surfaces an internal failure across the package boundary as
// an errno-derived error, preserving the cause's text and its errno
// when it carries one.
func wrapErr(op string, err error) error {
	if errno, ok := fault.AsErrno(err); ok {
		return fmt.Errorf("cluster: %s: %v: %w", op, err, errno)
	}
	return fmt.Errorf("cluster: %s: %v: %w", op, err, fault.EINVAL)
}

// New builds the fleet: every machine's kernel and workload are set
// up, the shared virtual clock is warped past the setup I/O backlog,
// and the balancer, health checker, and fault schedules are armed.
// Nothing is measured until Run.
func New(cfg Config) (*Cluster, error) {
	if cfg.ScaleDiv < 0 {
		return nil, fmt.Errorf("cluster: scale divisor %d is negative: %w", cfg.ScaleDiv, fault.EINVAL)
	}
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("cluster: arrival rate must be positive: %w", fault.EINVAL)
	}
	arr, err := workload.ArrivalByName(cfg.Arrival, cfg.Rate)
	if err != nil {
		return nil, wrapErr("arrival", err)
	}
	rt, ok := routerByName(cfg.Route)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown route %q (valid: round-robin, least-loaded, kloc): %w",
			cfg.Route, fault.EINVAL)
	}
	if cfg.Faults != nil {
		for _, in := range cfg.Faults.Injections {
			if in.Machine < 0 || in.Machine >= cfg.Machines {
				return nil, fmt.Errorf("cluster: fault injection %s targets machine %d of %d: %w",
					in, in.Machine, cfg.Machines, fault.EINVAL)
			}
			if !fault.KnownPoint(in.Point) {
				return nil, fmt.Errorf("cluster: fault injection %s names unknown point %q: %w",
					in, in.Point, fault.EINVAL)
			}
		}
	}
	switch cfg.Bug {
	case "", BugHedgeSlotLeak, BugProbeLeak:
	default:
		return nil, fmt.Errorf("cluster: unknown bug fixture %q: %w", cfg.Bug, fault.EINVAL)
	}
	if cfg.Trace != nil {
		if err := trace.CheckEvents(cfg.Trace.Events); err != nil {
			// The pattern error carries no errno to keep: EINVAL is the
			// one callers match.
			return nil, fmt.Errorf("cluster: %v: %w", err, fault.EINVAL)
		}
	}

	c := &Cluster{cfg: cfg, eng: sim.NewEngine(), arr: arr}
	if cfg.Trace != nil {
		c.tr = trace.New(*cfg.Trace)
	}
	root := sim.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Machines; i++ {
		m, err := newMachine(cfg, c.eng, i, root.Fork())
		if err != nil {
			return nil, err
		}
		m.c = c
		c.machines = append(c.machines, m)
	}
	c.clientRNG = root.Fork()
	c.groupZipf = sim.NewZipf(c.clientRNG.Fork(), groupSkew, groups)
	c.lb = newBalancer(c, rt)
	c.health = newHealthChecker(c)

	// Warp past every machine's setup storage backlog so the measured
	// window starts with idle devices, as single-kernel runs do.
	horizon := c.eng.Now()
	for _, m := range c.machines {
		if h := sim.Time(m.k.FS.MQ.Dev.BusyUntil()); h > horizon {
			horizon = h
		}
	}
	if horizon > c.eng.Now() {
		c.eng.RunUntil(horizon)
	}
	return c, nil
}

// fatal records a non-errno failure (a harness bug, not a modeled
// fault) and halts the run.
func (c *Cluster) fatal(e *sim.Engine, err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	e.Halt()
}

// Tracer returns the run's tracer (nil when untraced) for export.
func (c *Cluster) Tracer() *trace.Tracer { return c.tr }

// newRequest draws one arrival: a Zipf-distributed context group and
// the seed of a private jitter stream.
func (c *Cluster) newRequest(now sim.Time) *request {
	req := &request{
		lb:       c.lb,
		id:       c.reqIDs,
		group:    uint64(c.groupZipf.Next()),
		arrived:  now,
		seed:     c.clientRNG.Uint64(),
		measured: c.measuring,
	}
	req.inflight = req.legs[:0]
	c.reqIDs++
	for _, w := range c.windows {
		if now >= w[0] && now < w[1] {
			req.inWindow = true
			break
		}
	}
	return req
}

// Run drives the cluster for warmup plus the measured window and
// returns the report. Counters cover the measured window only.
func (c *Cluster) Run() (*Report, error) {
	cfg := c.cfg
	warmStart := c.eng.Now()
	start := warmStart.Add(cfg.Warmup)
	deadline := start.Add(cfg.Duration)

	c.armFaults(start)
	for _, m := range c.machines {
		m.k.Start()
	}
	c.health.start(c.eng, warmStart)

	var arrive sim.Func
	arrive = func(e *sim.Engine) {
		if e.Now() >= deadline {
			return
		}
		c.lb.admit(e, c.newRequest(e.Now()))
		e.After(c.arr.Next(e.Now(), c.clientRNG), arrive)
	}
	c.eng.Schedule(warmStart, arrive)
	// Warmup traffic runs the full path (populating hot sets and
	// routing affinity) without touching the counters; requests
	// arriving from the measured start on are the ones counted, even
	// if they resolve after the deadline during drain.
	c.eng.Schedule(start, sim.Func(func(*sim.Engine) { c.measuring = true }))
	// Drain: past the deadline no new arrivals come; in-flight requests
	// resolve (complete, fail, or time out) before the queue empties and
	// the run halts on its own. The kernels' periodic daemons would run
	// forever, so halt explicitly once the serving plane is quiet.
	c.eng.Schedule(deadline, sim.Func(c.drain))
	c.eng.Run()
	if c.runErr != nil {
		return nil, wrapErr("run", c.runErr)
	}
	return c.report(deadline.Sub(start)), nil
}

// armFaults arms each machine's share of the fault schedule relative
// to the measured start, and records the crash and degrade windows for
// availability accounting.
func (c *Cluster) armFaults(start sim.Time) {
	cfg := c.cfg
	if cfg.Faults == nil {
		return
	}
	for i, m := range c.machines {
		rules := cfg.Faults.Rules(i, start)
		// The crash and degrade points drive the machine itself; every
		// other point arms its kernel.
		machineRules := make(map[fault.Point]fault.Rule, 2)
		for _, pt := range []fault.Point{fault.MachineCrash, fault.MachineDegrade} {
			r, ok := rules[pt]
			if !ok {
				continue
			}
			delete(rules, pt)
			machineRules[pt] = r
			window := cfg.RestartDelay
			if pt == fault.MachineDegrade {
				window = cfg.DegradeFor
			}
			for _, ti := range r.Timed {
				c.windows = append(c.windows, [2]sim.Time{ti.At, ti.At.Add(window)})
			}
		}
		if len(rules) > 0 {
			m.k.InjectFaults(fault.NewPlane(fault.Config{Seed: cfg.Seed ^ (uint64(i)+1)<<32, Rules: rules}))
		}
		if len(machineRules) > 0 {
			m.plane = fault.NewPlane(fault.Config{Seed: cfg.Seed + uint64(i), Rules: machineRules})
		}
	}
}

// drain polls until no requests are outstanding, then halts the
// engine (the policy daemons never stop on their own).
func (c *Cluster) drain(e *sim.Engine) {
	if c.lb.outstanding == 0 {
		e.Halt()
		return
	}
	e.After(100*sim.Microsecond, sim.Func(c.drain))
}

func (c *Cluster) report(dur sim.Duration) *Report {
	r := &Report{
		Route:    c.lb.router.name(),
		Arrival:  c.arr.Name(),
		Workload: c.cfg.Workload,
		Policy:   PolicyName,
		Machines: c.cfg.Machines,
		Rate:     c.cfg.Rate,
		Stats:    c.stats,
	}
	if c.lat.Count() > 0 {
		r.MeanLatency = sim.Duration(c.lat.Mean())
		r.P50 = sim.Duration(c.lat.Quantile(0.5))
		r.P99 = sim.Duration(c.lat.Quantile(0.99))
		r.MaxLatency = sim.Duration(c.lat.Max())
	}
	secs := dur.Seconds()
	if secs > 0 {
		r.OfferedPerSec = float64(c.stats.Arrivals) / secs
		r.GoodputPerSec = float64(c.stats.Completed) / secs
	}
	if c.stats.Arrivals > 0 {
		r.Availability = float64(c.stats.Completed) / float64(c.stats.Arrivals)
	}
	r.FaultAvailability = 1
	if c.stats.FaultArrivals > 0 {
		r.FaultAvailability = float64(c.stats.FaultCompleted) / float64(c.stats.FaultArrivals)
	}
	return r
}

// EstimateServiceCost builds one machine of the configured fleet and
// serves probe requests back to back, returning the mean per-request
// service cost (cold penalties included at the configured group mix).
// The capacity sweep uses it to place offered rates around the knee.
func EstimateServiceCost(cfg Config) (sim.Duration, error) {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine()
	root := sim.NewRNG(cfg.Seed)
	m, err := newMachine(cfg, eng, 0, root.Fork())
	if err != nil {
		return 0, err
	}
	c := &Cluster{cfg: cfg, eng: eng}
	m.c = c
	if h := sim.Time(m.k.FS.MQ.Dev.BusyUntil()); h > eng.Now() {
		eng.RunUntil(h)
	}
	m.k.Start()
	zipf := sim.NewZipf(root.Fork(), groupSkew, groups)
	const probes = 512
	var total sim.Duration
	for i := 0; i < probes; i++ {
		hot := m.hotTouch(uint64(zipf.Next()))
		cost, _, err := m.step(eng, i%cfg.Workers)
		if err != nil {
			return 0, wrapErr("probe", err)
		}
		if !hot {
			cost = sim.Duration(float64(cost) * coldPenalty)
		}
		total += cost
		eng.RunUntil(eng.Now().Add(cost))
	}
	eng.Halt()
	return total / probes, nil
}
