package chaos

import (
	"fmt"

	"kloc/internal/cluster"
	"kloc/internal/fault"
	"kloc/internal/harness"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// The cluster target's fleet shape: small machines, small fleet —
// chaos wants many cheap runs. DegradeFactor and HedgeAfter are tuned
// so a degrade injection reliably drives the hedge/timeout machinery
// the conservation oracles watch.
const (
	clusterMachines      = 3
	clusterWorkers       = 2
	clusterQueueLimit    = 16
	clusterLoadFactor    = 0.6
	clusterDegradeFactor = 50
	clusterHedgeAfter    = 200 * sim.Microsecond
	clusterFaultWindow   = sim.Millisecond
)

// Outcome is one executed schedule's observable state — everything
// the invariant oracles judge.
type Outcome struct {
	Schedule fault.Schedule

	// RunErr is a non-errno failure out of the run itself (a harness
	// bug, never a modeled fault) — the run.error oracle's subject.
	RunErr error

	// Cluster-target state: the post-settle introspection snapshot, and
	// whether the fleet reached quiescence inside the settle bound.
	Intro   *cluster.Introspection
	Settled bool

	// Machine-target state.
	Result *harness.Result

	// Trace is the run's deterministic fingerprint: the report plus
	// the full trace-plane text export. Two executions of the same
	// (config, schedule) must produce identical bytes.
	Trace string

	tr *trace.Tracer
}

// emitViolation and emitMinimize record campaign bookkeeping events on
// the outcome's tracer. Both are called only after the fingerprint was
// captured, so they never perturb the determinism oracle. (They call
// Tracer.Emit with the catalog constant spelled out at the call site —
// the tracereach analyzer proves catalog liveness from those literal
// sites.)
func (o *Outcome) emitViolation(oracle string) {
	o.tr.Emit(trace.ChaosViolation, 0, o.Schedule.Hash(),
		uint64(len(o.Schedule.Injections)), oracle, -1, int64(len(o.Schedule.Injections)))
}

func (o *Outcome) emitMinimize(oracle string) {
	o.tr.Emit(trace.ChaosMinimize, 0, o.Schedule.Hash(),
		uint64(len(o.Schedule.Injections)), oracle, -1, int64(len(o.Schedule.Injections)))
}

// emitSchedule records the schedule-armed event.
func (o *Outcome) emitSchedule() {
	o.tr.Emit(trace.ChaosSchedule, 0, o.Schedule.Hash(),
		uint64(len(o.Schedule.Injections)), "arm", -1, int64(len(o.Schedule.Injections)))
}

// executor runs schedules against the configured target. The offered
// rate for the cluster target is calibrated once per campaign (the
// estimate is itself deterministic, so replays in a fresh process
// recompute the identical rate).
type executor struct {
	cfg  Config
	rate float64
}

func newExecutor(cfg Config) (*executor, error) {
	ex := &executor{cfg: cfg}
	if cfg.Target == TargetCluster {
		base := ex.clusterBase()
		cost, err := cluster.EstimateServiceCost(base)
		if err != nil {
			return nil, err
		}
		capacity := float64(base.Machines*base.Workers) / cost.Seconds()
		ex.rate = clusterLoadFactor * capacity
	}
	return ex, nil
}

func (ex *executor) clusterBase() cluster.Config {
	return cluster.Config{
		Machines:   clusterMachines,
		Workers:    clusterWorkers,
		QueueLimit: clusterQueueLimit,
		ScaleDiv:   ex.cfg.ScaleDiv,
		Workload:   ex.cfg.Workload,
		Route:      "kloc",
		Rate:       1, // placeholder; run() sets the calibrated rate
		Duration:   ex.cfg.Duration,
		Warmup:     ex.cfg.Duration / 4,
		// Short fault windows so burst-scheduled crashes (which re-fire
		// on restart) still settle well inside the bound.
		RestartDelay:  clusterFaultWindow,
		DegradeFor:    clusterFaultWindow,
		DegradeFactor: clusterDegradeFactor,
		HedgeAfter:    clusterHedgeAfter,
		Seed:          ex.cfg.Seed,
		Bug:           ex.cfg.Bug,
	}
}

// run executes one schedule and returns its outcome. A returned
// error is an infrastructure failure (bad config) that aborts the
// campaign; failures of the run itself land on Outcome.RunErr.
func (ex *executor) run(sched fault.Schedule) (*Outcome, error) {
	s := sched.Normalize()
	switch ex.cfg.Target {
	case TargetMachine:
		return ex.runMachine(s)
	default:
		return ex.runCluster(s)
	}
}

func (ex *executor) runCluster(s fault.Schedule) (*Outcome, error) {
	ccfg := ex.clusterBase()
	ccfg.Rate = ex.rate
	ccfg.Faults = &s
	ccfg.Trace = &trace.Config{}
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Schedule: s, tr: c.Tracer()}
	out.emitSchedule()
	rep, err := c.Run()
	if err != nil {
		out.RunErr = err
		out.Trace = "error: " + err.Error() + "\n" + c.Tracer().TextString()
		return out, nil
	}
	out.Settled = c.Settle(ex.cfg.SettleBound)
	in := c.Introspect()
	out.Intro = &in
	out.Trace = rep.String() + c.Tracer().TextString()
	return out, nil
}

func (ex *executor) runMachine(s fault.Schedule) (*Outcome, error) {
	rcfg := harness.RunConfig{
		PolicyName:    "klocs",
		Workload:      ex.cfg.Workload,
		ScaleDiv:      ex.cfg.ScaleDiv,
		Seed:          ex.cfg.Seed,
		Duration:      ex.cfg.Duration,
		FaultSchedule: &s,
		Sanitize:      true,
		CrashReplay:   true,
		Trace:         &trace.Config{},
	}
	out := &Outcome{Schedule: s}
	res, err := harness.Run(rcfg)
	if err != nil {
		out.RunErr = err
		out.Trace = "error: " + err.Error()
		return out, nil
	}
	out.Result = res
	out.tr = res.Trace
	out.emitSchedule()
	out.Trace = fmt.Sprintf("ops=%d faults=%d degraded=%d crash=%q\n",
		res.Ops, res.FaultsInjected, res.DegradedOps, res.CrashViolation) +
		res.FaultTrace + res.Sanitize.String() + res.Trace.TextString()
	return out, nil
}
