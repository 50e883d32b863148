// Package chaos is a deterministic chaos-campaign engine in the
// spirit of FoundationDB-style simulation testing. A seed-driven
// generator samples randomized fault schedules over the full
// fault.Points() catalog — point × virtual-time offset × errno ×
// burst length, including the cluster-level crash and degrade points
// — and executes each schedule against a named target (a single
// kernel under the harness, or an internal/cluster serving fleet).
// An invariant-oracle registry judges every run: conservation
// (balancer gauges return to zero, every admitted request terminates
// exactly once, no breaker left holding probe slots), liveness (the
// fleet settles back to a fully-admitted quiet state), crash
// consistency (FS journal replay, sanitizer leak scan), and
// determinism (same seed + schedule → byte-identical trace).
//
// On a violation, a delta-debugging minimizer shrinks the schedule to
// a minimal repro by deterministic re-execution, and the campaign
// emits a replay artifact (CHAOS_repro_<hash>.json) that
// `klocbench -exp chaos -replay <file>` re-runs exactly. Everything
// here is only possible because the substrate is seed-deterministic:
// re-running a schedule is a pure function of (config, schedule), so
// a reproduction is a proof, not a probability.
package chaos

import (
	"fmt"
	"hash/fnv"

	"kloc/internal/fault"
	"kloc/internal/sim"
)

// SchemaVersion stamps the chaos summary and replay artifacts so the
// BENCH_*/CHAOS_* trajectory stays self-describing across PRs.
const SchemaVersion = 1

// The campaign targets.
const (
	// TargetCluster runs each schedule against a small serving fleet
	// (3 machines behind the KLOC-aware balancer).
	TargetCluster = "cluster"
	// TargetMachine runs each schedule against one kernel under the
	// harness, with the sanitizer and the crash-replay oracle armed.
	TargetMachine = "machine"
)

// Config describes one chaos campaign.
type Config struct {
	// Target selects what each schedule runs against: TargetCluster
	// (default) or TargetMachine.
	Target string
	// Schedules is the campaign size (default 50).
	Schedules int
	// Seed drives the schedule generator and every run (default 42).
	Seed uint64
	// MaxInjections bounds the injections sampled per schedule
	// (default 6).
	MaxInjections int
	// DeterminismEvery re-executes every Nth clean schedule and
	// compares traces byte-for-byte (default 16; negative disables).
	DeterminismEvery int
	// Workload is the per-target workload (default "redis").
	Workload string
	// ScaleDiv scales the platform (zero means 256: chaos wants many
	// small runs, not few faithful ones; a negative divisor is EINVAL).
	ScaleDiv int
	// Duration is each run's measured window (default 10 ms).
	Duration sim.Duration
	// SettleBound is the extra virtual time a fleet gets to quiesce
	// after its measured window (default 50 ms).
	SettleBound sim.Duration
	// Bug re-introduces a known serving-plane defect (cluster.Bug*)
	// so the oracles themselves can be regression-tested.
	Bug string
}

func (c Config) withDefaults() Config {
	if c.Target == "" {
		c.Target = TargetCluster
	}
	if c.Schedules <= 0 {
		c.Schedules = 50
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxInjections <= 0 {
		c.MaxInjections = 6
	}
	if c.DeterminismEvery == 0 {
		c.DeterminismEvery = 16
	}
	if c.Workload == "" {
		c.Workload = "redis"
	}
	if c.ScaleDiv == 0 {
		c.ScaleDiv = 256
	}
	if c.Duration <= 0 {
		c.Duration = 10 * sim.Millisecond
	}
	if c.SettleBound <= 0 {
		c.SettleBound = 50 * sim.Millisecond
	}
	return c
}

func (c Config) validate() error {
	switch c.Target {
	case TargetCluster, TargetMachine:
	default:
		return fmt.Errorf("chaos: unknown target %q (valid: %s, %s): %w",
			c.Target, TargetCluster, TargetMachine, fault.EINVAL)
	}
	if c.ScaleDiv < 0 {
		return fmt.Errorf("chaos: scale divisor %d is negative: %w", c.ScaleDiv, fault.EINVAL)
	}
	return nil
}

// Violation is one oracle rejection of one run.
type Violation struct {
	// Oracle is the violated oracle's id ("conservation.outstanding",
	// "crash.journal", ...).
	Oracle string `json:"oracle"`
	// Detail pinpoints the broken invariant.
	Detail string `json:"detail"`
}

// ViolationRecord is one campaign violation with its minimization
// outcome, as recorded in the summary.
type ViolationRecord struct {
	ScheduleIndex       int    `json:"schedule_index"`
	Oracle              string `json:"oracle"`
	Detail              string `json:"detail"`
	OriginalInjections  int    `json:"original_injections"`
	MinimizedInjections int    `json:"minimized_injections"`
	// MinimizeProbes counts the deterministic re-executions the
	// minimizer spent shrinking the schedule.
	MinimizeProbes int `json:"minimize_probes"`
	// Artifact is the replay artifact's file name.
	Artifact string `json:"artifact"`
}

// Summary is the machine-readable campaign outcome
// (BENCH_chaos.json).
type Summary struct {
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Target        string `json:"target"`
	Seed          uint64 `json:"seed"`
	Schedules     int    `json:"schedules"`
	// Injections is the total injection count exercised across every
	// schedule of the campaign.
	Injections int `json:"injections"`
	// DeterminismRuns counts the byte-identity re-executions.
	DeterminismRuns int               `json:"determinism_runs"`
	OraclesChecked  []string          `json:"oracles_checked"`
	Violations      []ViolationRecord `json:"violations"`
	Clean           bool              `json:"clean"`
}

// RunCampaign executes one chaos campaign: generate schedules, run
// each against the target, judge with the oracle registry, and shrink
// every violation to a minimal repro with a replay artifact. The
// returned artifacts pair 1:1 with Summary.Violations.
func RunCampaign(cfg Config) (*Summary, []*Artifact, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	ex, err := newExecutor(cfg)
	if err != nil {
		return nil, nil, err
	}
	gen := newGenerator(cfg)
	oracles := Registry(cfg.Target)
	sum := &Summary{
		SchemaVersion: SchemaVersion,
		Experiment:    "chaos",
		Target:        cfg.Target,
		Seed:          cfg.Seed,
		Schedules:     cfg.Schedules,
	}
	for _, o := range oracles {
		sum.OraclesChecked = append(sum.OraclesChecked, o.ID)
	}
	sum.OraclesChecked = append(sum.OraclesChecked, OracleDeterminism)

	var artifacts []*Artifact
	for i := 0; i < cfg.Schedules; i++ {
		sched := gen.next()
		sum.Injections += len(sched.Injections)
		out, err := ex.run(sched)
		if err != nil {
			return nil, nil, err
		}
		v := check(oracles, out)
		if v == nil && cfg.DeterminismEvery > 0 && i%cfg.DeterminismEvery == 0 {
			sum.DeterminismRuns++
			again, err := ex.run(sched)
			if err != nil {
				return nil, nil, err
			}
			if again.Trace != out.Trace {
				v = &Violation{
					Oracle: OracleDeterminism,
					Detail: fmt.Sprintf("same seed and schedule diverged: trace fnv %016x vs %016x",
						fnv64(out.Trace), fnv64(again.Trace)),
				}
			}
		}
		if v == nil {
			continue
		}
		out.emitViolation(v.Oracle)
		art, rec, err := shrink(ex, oracles, cfg, i, sched, v)
		if err != nil {
			return nil, nil, err
		}
		artifacts = append(artifacts, art)
		sum.Violations = append(sum.Violations, rec)
	}
	sum.Clean = len(sum.Violations) == 0
	return sum, artifacts, nil
}

// shrink minimizes one violating schedule and packages the repro.
func shrink(ex *executor, oracles []Oracle, cfg Config, index int, sched fault.Schedule, v *Violation) (*Artifact, ViolationRecord, error) {
	reproduces := func(cand fault.Schedule) bool {
		out, err := ex.run(cand)
		if err != nil {
			return false
		}
		got := check(oracles, out)
		return got != nil && got.Oracle == v.Oracle
	}
	if v.Oracle == OracleDeterminism {
		reproduces = func(cand fault.Schedule) bool {
			a, err := ex.run(cand)
			if err != nil {
				return false
			}
			b, err := ex.run(cand)
			if err != nil {
				return false
			}
			return a.Trace != b.Trace
		}
	}
	minimal, probes := minimize(sched, reproduces)
	// One confirming run of the minimal schedule: its violation detail
	// and trace fingerprint are what the artifact pins.
	confirm, err := ex.run(minimal)
	if err != nil {
		return nil, ViolationRecord{}, err
	}
	probes++
	detail := v.Detail
	if got := check(oracles, confirm); got != nil && got.Oracle == v.Oracle {
		detail = got.Detail
	}
	confirm.emitMinimize(v.Oracle)
	art := &Artifact{
		SchemaVersion:      SchemaVersion,
		Experiment:         "chaos",
		Target:             cfg.Target,
		Seed:               cfg.Seed,
		Workload:           cfg.Workload,
		ScaleDiv:           cfg.ScaleDiv,
		DurationNs:         int64(cfg.Duration),
		SettleBoundNs:      int64(cfg.SettleBound),
		Bug:                cfg.Bug,
		Oracle:             v.Oracle,
		Detail:             detail,
		ScheduleIndex:      index,
		OriginalInjections: len(sched.Normalize().Injections),
		MinimizeProbes:     probes,
		TraceFNV:           fnv64(confirm.Trace),
		Schedule:           minimal,
	}
	rec := ViolationRecord{
		ScheduleIndex:       index,
		Oracle:              v.Oracle,
		Detail:              detail,
		OriginalInjections:  art.OriginalInjections,
		MinimizedInjections: len(minimal.Injections),
		MinimizeProbes:      probes,
		Artifact:            art.Filename(),
	}
	return art, rec, nil
}

// fnv64 fingerprints a trace export for determinism comparisons.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
