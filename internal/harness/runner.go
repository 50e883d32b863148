// Package harness drives measured simulation runs and regenerates the
// paper's tables and figures (DESIGN.md §4 maps each experiment to its
// function here).
//
// Run executes one measured run from a RunConfig — platform, policy,
// workload, seed, duration, plus the optional planes (Fault, Pressure,
// Trace) — with a warmup phase so policies are judged at steady state,
// and returns a Result carrying the measured-window counters every
// table is built from. Each of the paper's figures and tables is a
// plan in one ordered registry: its table's frame and its runs, listed
// before any executes, in groups whose reducers turn results into rows.
// Experiment plans one and runs its configs in list order; Options
// trades fidelity for wall time (quick mode). Determinism is inherited
// from the substrate: the same RunConfig always yields the same Result.
package harness

import (
	"fmt"

	"kloc/internal/alloc"
	"kloc/internal/fault"
	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/memsim"
	"kloc/internal/metrics"
	"kloc/internal/netsim"
	"kloc/internal/policy"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// Platform selects the Table-4 machine.
type Platform int

// Platforms.
const (
	TwoTier Platform = iota
	Optane
)

// RunConfig describes one measured run.
type RunConfig struct {
	Platform Platform
	// TwoTier is the two-tier platform's config; the zero value means
	// the Table-4 default scaled by ScaleDiv.
	TwoTier memsim.TwoTierConfig
	// ScaleDiv scales the platform when TwoTier is zero or Platform is
	// Optane, and always scales the workload. Zero means 64; a negative
	// divisor is EINVAL.
	ScaleDiv int

	PolicyName string
	// Policy overrides PolicyName with a pre-built policy instance
	// (used by experiments that need non-catalog configurations, e.g.
	// the Fig 5c group sweep and the ablation benches).
	Policy kernel.Policy

	Workload string
	WLConfig workload.Config

	// KlocPrefetch enables the KLOC-aware readahead integration (§4.4).
	KlocPrefetch bool
	// ReadaheadWindow overrides the FS readahead window (-1 disables,
	// 0 keeps the default).
	ReadaheadWindow int

	Seed uint64
	// MoveTaskAtFrac, on the Optane platform, moves the task to socket
	// 1 after this fraction of the measured duration (the §6.2
	// interference scenario). 0 disables.
	MoveTaskAtFrac float64

	// Duration is the measured virtual run length; throughput is ops
	// completed within it. Zero means 400 ms of virtual time; a
	// negative one is EINVAL. A warmup of Duration/2 runs the workload
	// (and daemons) before measurement begins so policies are judged at
	// steady state.
	Duration sim.Duration

	// Fault arms a deterministic fault-injection plane for the run.
	// The plane attaches after workload setup, so setup is never
	// perturbed and a rate-0 plane leaves the run bit-identical to an
	// unfaulted one. Nil runs without injection.
	Fault *fault.Config

	// FaultSchedule arms an exact-time fault schedule (the chaos
	// engine's replayable form) with offsets rebased onto the measured
	// window's start, so the same schedule means the same thing across
	// runs whose setup phases differ. Mutually exclusive with Fault.
	FaultSchedule *fault.Schedule

	// CrashReplay runs the crash-consistency oracle after the measured
	// window: crash the FS, check the in-memory image tore down clean,
	// replay the journal, and check the durable image was rebuilt
	// exactly. The verdict lands on Result.CrashViolation; the run's
	// other counters are collected before the crash and are unaffected.
	CrashReplay bool

	// Pressure configures the memory-pressure plane: capacity-derived
	// watermarks on the fast node (enabling the emergency-reserve gate)
	// and, with a nonzero KswapdPeriod, the background reclaimer.
	// Applied after workload setup, like Fault. Nil leaves watermarks off — direct
	// reclaim through the shrinker registry still works; only the
	// reserve gate and kswapd stay disabled.
	Pressure *pressure.Config

	// Trace arms the tracepoint-analog observability plane for the run
	// (OBSERVABILITY.md). The tracer attaches before workload setup —
	// it is strictly passive, so setup stays bit-identical — and is
	// returned on Result.Trace for export. Nil runs without tracing.
	Trace *trace.Config

	// Sanitize arms the KASAN/kmemleak-analog runtime sanitizer for the
	// run. Like the tracer it attaches before setup and is strictly
	// passive — a sanitized run is bit-identical to an unsanitized one
	// at the same seed. The end-of-run report (double frees,
	// use-after-free accesses, leaked objects grouped by KLOC context)
	// is returned on Result.Sanitize.
	Sanitize bool
}

// Result is one run's outcome.
type Result struct {
	Policy, Workload string
	Ops              int
	VirtualTime      sim.Duration
	// Throughput in operations per virtual second.
	Throughput float64

	Mem      memsim.Stats
	AppRefs  uint64
	KernRefs uint64

	// Allocation counts by class (pages), summed over nodes, and the
	// slow/remote-node slice of them. These are measured-window deltas;
	// TotalAllocsByClass covers the whole run including setup (the
	// footprint-characterization view of Fig 2).
	AllocsByClass      [6]uint64
	SlowAllocsByClass  [6]uint64
	TotalAllocsByClass [6]uint64

	// Lifetime means.
	AppLifetime, SlabLifetime, CacheLifetime sim.Duration

	// KlocMetadataBytes is nonzero for KLOC policies (Table 6).
	KlocMetadataBytes int

	// ReadaheadIssued/Hits for the prefetch study.
	ReadaheadIssued, ReadaheadHits uint64

	// FastPathHitRate for the §4.3 ablation (KLOC policies).
	FastPathHitRate float64

	// FS / Net expose subsystem stats for the characterization tables.
	FS  fs.Stats
	Net netsim.Stats
	// DevBusy is the storage device's total busy horizon (I/O pressure).
	DevBusy sim.Duration
	// OpCost summarizes per-operation virtual costs.
	OpCost metrics.Distribution

	// Fault-injection outcomes (zero when no plane was armed).
	// FaultsInjected is the plane's total injection count; FaultTrace
	// is its deterministic, replayable record (one line per injection).
	FaultsInjected uint64
	FaultTrace     string
	// DegradedOps counts workload steps that absorbed an errno-style
	// failure and continued instead of aborting the run.
	DegradedOps uint64
	// IORetries / IOHardFailures are the block layer's re-drive and
	// retry-budget-exhaustion counts.
	IORetries      uint64
	IOHardFailures uint64

	// Memory-pressure outcomes (nonzero only when the run hit
	// pressure). Pressure mirrors the plane's counters — direct-reclaim
	// invocations and pages, kswapd wakeups and pages, OOM evictions
	// and spilled pages, aborted reclaim rounds. ReserveDips counts
	// atomic allocations that drew on the watermark emergency reserve,
	// and ShrinkerStats breaks reclaimed objects/pages down per
	// registered shrinker in scan order.
	Pressure      pressure.Stats
	ReserveDips   uint64
	ShrinkerStats []pressure.ShrinkerStat

	// Trace is the run's armed tracer (nil when tracing was off);
	// callers export it via WriteText / WriteChrome. TraceStats
	// summarizes per-event-name totals and per-KLOC-context activity
	// over virtual-time windows; it covers every emitted event even
	// when the ring buffer dropped some.
	Trace      *trace.Tracer
	TraceStats trace.Stats

	// Perf reports the run's hot-path accounting meters (DESIGN.md
	// §13): deterministic evidence of how much bookkeeping the run did —
	// accesses counted, frame/ctx pool recycling, trace summary
	// commits. Purely informational; the simulation never reads them.
	Perf PerfMeters

	// Sanitize is the runtime sanitizer's end-of-run report (nil when
	// RunConfig.Sanitize was off).
	Sanitize *alloc.SanReport

	// CrashReplayed is set when the CrashReplay oracle ran;
	// CrashViolation names the first violated crash-consistency
	// invariant (empty means the crash/replay cycle was clean).
	CrashReplayed  bool
	CrashViolation string
}

func (c RunConfig) withDefaults() RunConfig {
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Duration == 0 {
		c.Duration = 400 * sim.Millisecond
	}
	c.WLConfig.ScaleDiv = c.ScaleDiv
	return c
}

func (c RunConfig) buildMemory() *memsim.Memory {
	switch c.Platform {
	case Optane:
		return memsim.NewOptane(memsim.DefaultOptane(c.ScaleDiv))
	default:
		cfg := c.TwoTier
		if cfg == (memsim.TwoTierConfig{}) {
			cfg = memsim.DefaultTwoTier(c.ScaleDiv)
		}
		if c.PolicyName == "all-fast" {
			// The ideal bound: fast memory big enough for everything.
			cfg.FastPages = cfg.SlowPages
		}
		return memsim.NewTwoTier(cfg)
	}
}

// Run executes one measured simulation run.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Duration < 0 {
		return nil, fmt.Errorf("harness: duration %v is negative: %w", cfg.Duration, fault.EINVAL)
	}
	if cfg.ScaleDiv < 0 {
		return nil, fmt.Errorf("harness: scale divisor %d is negative: %w", cfg.ScaleDiv, fault.EINVAL)
	}
	cfg = cfg.withDefaults()
	if cfg.Trace != nil {
		if err := trace.CheckEvents(cfg.Trace.Events); err != nil {
			return nil, fmt.Errorf("harness: %w: %w", err, fault.EINVAL)
		}
	}
	mem := cfg.buildMemory()
	pol := cfg.Policy
	if pol == nil {
		var err error
		pol, err = policy.ByName(cfg.PolicyName)
		if err != nil {
			return nil, err
		}
	}
	wl, err := workload.ByName(cfg.Workload, cfg.WLConfig)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	k := kernel.New(eng, mem, pol)
	k.FS.KlocAwareReadahead = cfg.KlocPrefetch
	if cfg.ReadaheadWindow != 0 {
		w := cfg.ReadaheadWindow
		if w < 0 {
			w = 0
		}
		k.FS.ReadaheadWindow = w
	}
	// Attach the tracer before setup: the plane is strictly passive, so
	// a traced run is bit-identical to an untraced one, and setup-phase
	// allocations (the long-lived object population) appear in the
	// trace.
	var tracer *trace.Tracer
	if cfg.Trace != nil {
		tracer = trace.New(*cfg.Trace)
		k.AttachTracer(tracer)
	}
	// The sanitizer attaches before setup for the same reason: it is
	// strictly passive, and setup-phase allocations must be tracked or
	// the teardown leak scan would miss the long-lived population.
	if cfg.Sanitize {
		k.AttachSanitizer(alloc.NewSanitizer())
	}
	root := sim.NewRNG(cfg.Seed)
	if err := wl.Setup(k, root); err != nil {
		return nil, fmt.Errorf("harness: setup %s: %w", wl.Name(), err)
	}
	// Warp past the setup phase's storage backlog: the measured window
	// starts with an idle device, as the paper's warmed-up runs do.
	if horizon := sim.Time(k.FS.MQ.Dev.BusyUntil()); horizon > eng.Now() {
		eng.RunUntil(horizon)
	}
	setupEnd := eng.Now()
	start := setupEnd.Add(cfg.Duration / 2)
	// Arm the fault plane only now: setup ran clean, and the plane's
	// per-point RNG streams start from the configured seed regardless of
	// how long setup took, so traces are comparable across policies.
	var plane *fault.Plane
	if cfg.Fault != nil && cfg.FaultSchedule != nil {
		return nil, fmt.Errorf("harness: Fault and FaultSchedule are mutually exclusive: %w", fault.EINVAL)
	}
	if cfg.Fault != nil {
		plane = fault.NewPlane(*cfg.Fault)
	} else if cfg.FaultSchedule != nil {
		plane = fault.NewPlane(cfg.FaultSchedule.Config(cfg.Seed, -1, start))
	}
	if plane != nil {
		k.InjectFaults(plane)
	}
	// Configure pressure before Start so kswapd is armed when the
	// daemons launch. Setup ran without the reserve gate for the same
	// reason the fault plane attaches late: a configured run's setup is
	// bit-identical to an unconfigured one's.
	if cfg.Pressure != nil {
		k.Pressure.Configure(*cfg.Pressure)
	}
	k.Start()

	// The state the scheduled closures mutate.
	threads := wl.Threads()
	var (
		done        int
		globalOps   int
		degradedOps uint64
		stepErr     error
		opCosts     metrics.Distribution
		base        statSnapshot
	)
	deadline := start.Add(cfg.Duration)
	if cfg.Platform == Optane && cfg.MoveTaskAtFrac > 0 {
		moveAt := start.Add(sim.Duration(cfg.MoveTaskAtFrac * float64(cfg.Duration)))
		eng.Schedule(moveAt, sim.Func(func(*sim.Engine) { k.SetTaskSocket(1) }))
	}

	eng.Schedule(start, sim.Func(func(*sim.Engine) { base = snapshot(k) }))
	for t := 0; t < threads; t++ {
		t := t
		rng := root.Fork()
		var step sim.Func
		finish := func(e *sim.Engine) {
			done++
			if done == threads {
				// All threads retired: stop the policy daemons too.
				e.Halt()
			}
		}
		step = func(e *sim.Engine) {
			if stepErr != nil || e.Now() >= deadline {
				finish(e)
				return
			}
			if e.Now() >= start {
				globalOps++
			}
			ctx := k.NewCtx(t)
			if err := wl.Step(k, ctx, t, rng); err != nil {
				if (plane != nil || cfg.Pressure != nil) && fault.IsErrno(err) {
					// Graceful degradation: an injected (or induced)
					// errno fails this operation, not the run. The op
					// still pays the virtual time it consumed.
					degradedOps++
				} else {
					stepErr = fmt.Errorf("harness: %s thread %d: %w", wl.Name(), t, err)
					finish(e)
					return
				}
			}
			cost := ctx.Cost
			// The op has retired and nothing downstream retains ctx, so
			// it can go back to the pool.
			k.PutCtx(ctx)
			if cost < 100 {
				cost = 100
			}
			if e.Now() >= start {
				opCosts.Observe(float64(cost))
			}
			e.After(cost, step)
		}
		// Stagger thread starts to avoid artificial convoys.
		eng.Schedule(setupEnd.Add(sim.Duration(t)), step)
	}
	eng.Run()

	// Collect the Result now that the engine has drained.
	if stepErr != nil {
		return nil, stepErr
	}
	if done != threads {
		return nil, fmt.Errorf("harness: %d/%d threads finished", done, threads)
	}
	res := collect(cfg, k, pol, wl, globalOps, start, base)
	res.OpCost = opCosts
	res.DegradedOps = degradedOps
	if plane != nil {
		res.FaultsInjected = plane.Injected()
		res.FaultTrace = plane.TraceString()
	}
	res.IORetries = k.FS.MQ.Retries
	res.IOHardFailures = k.FS.MQ.HardFailures
	res.Pressure = k.Pressure.Stats
	res.ReserveDips = k.Mem.Stats.ReserveDips
	res.ShrinkerStats = k.Pressure.ShrinkerStats()
	res.Trace = tracer
	res.TraceStats = tracer.Stats()
	res.Perf = PerfMeters{Mem: k.Mem.PerfCounters(), TraceCommits: tracer.SummaryCommits()}
	res.Perf.CtxFresh, res.Perf.CtxReused = k.CtxPoolCounters()
	res.Sanitize = k.SanitizeReport(eng.Now())
	if cfg.CrashReplay {
		res.CrashReplayed = true
		res.CrashViolation = crashReplayCheck(k)
	}
	return res, nil
}

// PerfMeters are one run's hot-path accounting meters (DESIGN.md §13):
// Mem carries the accesses counted and the frame-pool counters,
// TraceCommits the tracer's batched summary commits (zero when tracing
// was off), and CtxFresh/CtxReused the op-context pool's behavior.
// All are deterministic at a given seed.
type PerfMeters struct {
	Mem                 memsim.PerfCounters
	TraceCommits        uint64
	CtxFresh, CtxReused uint64
}

// crashReplayCheck crashes the FS and replays its journal, returning
// the first violated crash-consistency invariant (empty when clean).
// The fault plane is disarmed first: leftover scheduled injections
// must not fire inside the recovery path the oracle is judging.
func crashReplayCheck(k *kernel.Kernel) string {
	k.InjectFaults(nil)
	ctx := k.NewCtx(0)
	k.FS.Crash(ctx)
	if n := k.FS.Inodes(); n != 0 {
		return fmt.Sprintf("post-crash: %d in-memory inodes survived the teardown", n)
	}
	if n := k.FS.JournalPending(); n != 0 {
		return fmt.Sprintf("post-crash: %d uncommitted journal records survived", n)
	}
	if err := k.FS.Replay(ctx); err != nil {
		return fmt.Sprintf("replay failed: %v", err)
	}
	if n := k.FS.JournalPending(); n != 0 {
		return fmt.Sprintf("post-replay: %d journal records left pending", n)
	}
	if got, want := k.FS.Inodes(), k.FS.DurableInodes(); got != want {
		return fmt.Sprintf("post-replay: %d inodes materialized, durable image holds %d", got, want)
	}
	return ""
}

// statSnapshot captures the counters that are reported as
// measured-window deltas.
type statSnapshot struct {
	refs         [6]uint64
	allocsByNode map[memsim.NodeID][6]uint64
	migrated     uint64
	demotions    uint64
	promotions   uint64
	l4Hits       uint64
	l4Misses     uint64
	raIssued     uint64
	raHits       uint64
}

func snapshot(k *kernel.Kernel) statSnapshot {
	// Batched/indexed accounting lags the shared Stats between flushes;
	// materialize before reading so measured-window deltas are exact.
	k.Mem.SyncStats()
	st := statSnapshot{
		refs:         k.Mem.Stats.Refs,
		allocsByNode: make(map[memsim.NodeID][6]uint64),
		migrated:     k.Mem.Stats.MigratedPages,
		demotions:    k.Mem.Stats.Demotions,
		promotions:   k.Mem.Stats.Promotions,
		l4Hits:       k.Mem.Stats.L4Hits,
		l4Misses:     k.Mem.Stats.L4Misses,
		raIssued:     k.FS.Stats.ReadaheadIssued,
		raHits:       k.FS.Stats.ReadaheadHits,
	}
	for node, counts := range k.Mem.Stats.AllocsByClassNode {
		st.allocsByNode[node] = *counts
	}
	return st
}

func collect(cfg RunConfig, k *kernel.Kernel, pol kernel.Policy, wl workload.Workload, ops int, start sim.Time, base statSnapshot) *Result {
	mem := k.Mem
	mem.SyncStats()
	res := &Result{
		Policy:      pol.Name(),
		Workload:    wl.Name(),
		Ops:         ops,
		VirtualTime: k.Eng.Now().Sub(start),
		Mem:         mem.Stats,
	}
	if res.VirtualTime > 0 {
		res.Throughput = float64(ops) / res.VirtualTime.Seconds()
	}
	res.Mem.MigratedPages -= base.migrated
	res.Mem.Demotions -= base.demotions
	res.Mem.Promotions -= base.promotions
	res.Mem.L4Hits -= base.l4Hits
	res.Mem.L4Misses -= base.l4Misses
	slow := slowNodeOf(cfg)
	for class := 0; class < 6; class++ {
		c := memsim.Class(class)
		refs := mem.Stats.Refs[class] - base.refs[class]
		if c.Kernel() {
			res.KernRefs += refs
		} else if c == memsim.ClassApp {
			res.AppRefs += refs
		}
		for node, counts := range mem.Stats.AllocsByClassNode {
			delta := counts[class] - base.allocsByNode[node][class]
			res.AllocsByClass[class] += delta
			res.TotalAllocsByClass[class] += counts[class]
			if slow == node {
				res.SlowAllocsByClass[class] += delta
			}
		}
	}
	res.AppLifetime = k.Lifetimes.Class(metrics.LifetimeApp).Mean()
	res.SlabLifetime = k.Lifetimes.Class(metrics.LifetimeSlab).Mean()
	res.CacheLifetime = k.Lifetimes.Class(metrics.LifetimeCache).Mean()
	res.ReadaheadIssued = k.FS.Stats.ReadaheadIssued - base.raIssued
	res.ReadaheadHits = k.FS.Stats.ReadaheadHits - base.raHits
	res.FS = k.FS.Stats
	res.Net = k.Net.Stats
	res.DevBusy = sim.Duration(k.FS.MQ.Dev.BusyUntil())
	if kp, ok := pol.(*policy.KLOCs); ok {
		res.KlocMetadataBytes = kp.MetadataBytes()
		res.FastPathHitRate = kp.Reg.FastPathHitRate()
	}
	return res
}

// slowNodeOf identifies the "slow"/remote node for allocation slicing:
// the slow tier on two-tier, socket 1 on Optane (the socket the task
// does not start on).
func slowNodeOf(cfg RunConfig) memsim.NodeID {
	if cfg.Platform == Optane {
		return memsim.Socket1Node
	}
	return memsim.SlowNode
}
