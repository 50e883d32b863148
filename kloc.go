// Package kloc is a library-grade reproduction of "KLOCs: Kernel-Level
// Object Contexts for Heterogeneous Memory Systems" (Kannan, Ren,
// Bhattacharjee — ASPLOS 2021) as a deterministic simulation.
//
// The paper's contribution is an OS abstraction that groups the kernel
// objects (inodes, dentries, journal buffers, page-cache pages, socket
// buffers, ...) belonging to each file or socket into a "KLOC" anchored
// on a knode, so that tiered-memory policies can place and migrate them
// en masse instead of relying on page-table scans that are slower than
// the objects' lifetimes.
//
// This package is the public surface. Its entry points run the
// simulation as the commands and examples do: one measured run (Run),
// the experiment harness that regenerates every table and figure of
// the paper's evaluation (Experiment; see EXPERIMENTS.md), the cluster
// sweep (ClusterBench) and chaos campaigns (RunChaosCampaign,
// ChaosReplay). It also names the types those runs are built from and
// report: the memory platforms (two-tier and Optane Memory Mode), the
// simulated kernel, the KLOC registry, the Table-5 tiering policies
// and the Table-3 workload models.
//
// Quick start:
//
//	res, err := kloc.Run(kloc.RunConfig{
//		PolicyName: "klocs",
//		Workload:   "rocksdb",
//	})
//	fmt.Printf("throughput: %.0f ops/s\n", res.Throughput)
//
// Everything executes in virtual time on one goroutine; identical
// seeds produce identical results.
package kloc

import (
	"kloc/internal/alloc"
	"kloc/internal/chaos"
	"kloc/internal/cluster"
	"kloc/internal/fault"
	"kloc/internal/harness"
	"kloc/internal/kernel"
	"kloc/internal/kloc"
	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// Simulation substrate.
type (
	// Time is a virtual-time instant (nanoseconds).
	Time = sim.Time
	// Duration is a virtual-time span (nanoseconds).
	Duration = sim.Duration
	// Engine is the deterministic discrete-event engine.
	Engine = sim.Engine
	// RNG is the deterministic random number generator.
	RNG = sim.RNG
)

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Memory platforms (Table 4).
type (
	// Memory is the simulated memory system.
	Memory = memsim.Memory
	// TwoTierConfig parameterizes the software-managed two-tier
	// platform.
	TwoTierConfig = memsim.TwoTierConfig
	// OptaneConfig parameterizes the Optane Memory-Mode platform.
	OptaneConfig = memsim.OptaneConfig
	// Frame is one simulated page frame.
	Frame = memsim.Frame
	// NodeID identifies a memory node.
	NodeID = memsim.NodeID
)

// Kernel and KLOC core.
type (
	// Kernel is the assembled simulated OS.
	Kernel = kernel.Kernel
	// Policy is a tiering strategy plugged into the kernel.
	Policy = kernel.Policy
	// Registry is the KLOC state: kmap, knodes, per-CPU fast paths
	// (the Table-2 API lives here).
	Registry = kloc.Registry
	// Knode anchors one KLOC (§4.2).
	Knode = kloc.Knode
	// ObjectType enumerates Table 1's kernel-object types.
	ObjectType = kobj.Type
	// ObjectGroup buckets types for the Fig 5c sensitivity study.
	ObjectGroup = kobj.Group
)

// Policies (Table 5).
type (
	// KLOCConfig selects a KLOCs policy variant.
	KLOCConfig = policy.KLOCConfig
	// KLOCsPolicy is the paper's policy.
	KLOCsPolicy = policy.KLOCs
)

// NewKLOCs builds the KLOCs policy with a custom configuration.
func NewKLOCs(cfg KLOCConfig) *KLOCsPolicy { return policy.NewKLOCs(cfg) }

// DefaultKLOCConfig is the full paper design.
func DefaultKLOCConfig() KLOCConfig { return policy.DefaultKLOCConfig() }

// Fault injection (the robustness plane; DESIGN.md §7).
type (
	// Errno is a kernel-style error code (ENOMEM, EIO, EAGAIN, EBUSY,
	// EINVAL) propagated through the simulated kernel surface.
	Errno = fault.Errno
	// FaultConfig describes a deterministic fault-injection plane.
	FaultConfig = fault.Config
	// FaultPlane is an armed injector; attach one via
	// Kernel.InjectFaults or RunConfig.Fault.
	FaultPlane = fault.Plane
	// FaultPoint names an injection point (block I/O, slab/page
	// allocation, migration, packet ingress).
	FaultPoint = fault.Point
	// FaultRule sets a point's probability or schedule.
	FaultRule = fault.Rule
)

// Errnos.
const (
	ENOMEM    = fault.ENOMEM
	EIO       = fault.EIO
	EAGAIN    = fault.EAGAIN
	EBUSY     = fault.EBUSY
	EINVAL    = fault.EINVAL
	ETIMEDOUT = fault.ETIMEDOUT
)

// AsErrno extracts the errno from an error chain.
func AsErrno(err error) (Errno, bool) { return fault.AsErrno(err) }

// Memory pressure (the watermark/reclaim plane; DESIGN.md §8).
type (
	// PressureConfig arms the pressure plane for a run
	// (RunConfig.Pressure): capacity-derived watermarks on the fast
	// node and, with a nonzero KswapdPeriod, the kswapd-analog
	// background reclaimer.
	PressureConfig = pressure.Config
	// PressurePlane is the assembled reclaim machinery — shrinker
	// registry, bounded direct reclaim, kswapd, OOM-grade eviction.
	// Every Kernel owns one (Kernel.Pressure).
	PressurePlane = pressure.Plane
	// PressureStats counts a run's reclaim activity.
	PressureStats = pressure.Stats
	// Shrinker is a Linux-style count/scan reclaim callback.
	Shrinker = pressure.Shrinker
	// Watermarks are per-node min/low/high free-page thresholds.
	Watermarks = memsim.Watermarks
)

// Tracing (the tracepoint-analog observability plane; DESIGN.md §9,
// OBSERVABILITY.md).
type (
	// TraceConfig arms the tracing plane for a run (RunConfig.Trace)
	// with the enabled event-name patterns. The ring holds the last
	// 65,536 events and summaries count in 10 ms windows.
	TraceConfig = trace.Config
	// Tracer is an armed tracing plane; Result.Trace carries the run's
	// tracer for export via WriteText / WriteChrome.
	Tracer = trace.Tracer
	// TraceEvent is one emitted trace record.
	TraceEvent = trace.Event
	// TraceEventName names a catalog event ("alloc.slab", ...).
	TraceEventName = trace.Name
	// TraceStats summarizes a run's trace: per-event-name totals and
	// per-KLOC-context activity over virtual-time windows.
	TraceStats = trace.Stats
)

// Runtime sanitizing (the KASAN/kmemleak-analog plane; DESIGN.md §10).
type (
	// Sanitizer is an armed runtime sanitizer: a freed-object poison
	// quarantine catches double frees and use-after-free accesses as
	// they happen, and a teardown reachability scan reports leaks
	// grouped by KLOC context. RunConfig.Sanitize arms one per run.
	Sanitizer = alloc.Sanitizer
	// SanReport is the end-of-run sanitizer summary (Result.Sanitize).
	SanReport = alloc.SanReport
	// SanFinding is one detected violation.
	SanFinding = alloc.SanFinding
	// SanKind classifies a finding (double-free, use-after-free, leak).
	SanKind = alloc.SanKind
	// LeakGroup aggregates leaked objects sharing a KLOC context.
	LeakGroup = alloc.LeakGroup
)

// Finding kinds.
const (
	SanDoubleFree   = alloc.SanDoubleFree
	SanUseAfterFree = alloc.SanUseAfterFree
	SanLeak         = alloc.SanLeak
)

// Workloads (Table 3).
type (
	// Workload is a Table-3 application model.
	Workload = workload.Workload
	// WorkloadConfig scales a workload.
	WorkloadConfig = workload.Config
)

// Experiment harness.
type (
	// RunConfig describes one measured simulation run.
	RunConfig = harness.RunConfig
	// Result is a run's outcome.
	Result = harness.Result
	// Options tunes an experiment batch.
	Options = harness.Options
	// Table is a rendered experiment result.
	Table = harness.Table
)

// Platform selectors for RunConfig.
const (
	TwoTier = harness.TwoTier
	Optane  = harness.Optane
)

// Run executes one measured simulation run. A negative Duration or
// ScaleDiv is EINVAL; zero means the 400 ms or 64 default.
func Run(cfg RunConfig) (*Result, error) { return harness.Run(cfg) }

// Experiment runs a named paper experiment ("fig2a".."fig6", "table6",
// "prefetch", "ablations", "faults", "pressure") and returns its table.
// It lists the experiment's runs before the first executes, so an
// unknown name and Options no run can use are EINVAL before any run.
func Experiment(name string, o Options) (*Table, error) { return harness.Experiment(name, o) }

// CheckExperiment plans a named experiment without running it and
// returns the error Experiment would fail with before its first run:
// EINVAL for an unknown name, a ScaleDiv below 1, a negative Duration,
// Seed 0, an unknown workload, or a Workloads selection the experiment
// cannot run.
func CheckExperiment(name string, o Options) error { return harness.CheckExperiment(name, o) }

// ExperimentNames lists experiments in presentation order.
func ExperimentNames() []string { return harness.ExperimentNames() }

// DefaultOptions runs experiments at full fidelity.
func DefaultOptions() Options { return harness.DefaultOptions() }

// QuickOptions trades fidelity for wall time.
func QuickOptions() Options { return harness.QuickOptions() }

// Cluster serving plane (the fleet robustness plane; DESIGN.md §11).
type (
	// ClusterConfig describes a simulated serving fleet: machine count
	// and worker pools, open-loop arrival process, hedge delay, routing
	// policy, and the deterministic fault schedule (a FaultSchedule whose
	// cluster.crash and cluster.degrade injections hit whole machines).
	ClusterConfig = cluster.Config
	// ClusterReport is one cluster run's outcome (goodput, latency
	// quantiles, availability through fault windows, and counters).
	ClusterReport = cluster.Report
	// ClusterStats are the raw fleet counters inside a ClusterReport.
	ClusterStats = cluster.Stats
	// Cluster is a running fleet: N machine stacks behind the balancer.
	Cluster = cluster.Cluster
	// ClusterBenchReport is the machine-readable cluster sweep
	// (BENCH_cluster.json).
	ClusterBenchReport = harness.ClusterBenchReport
	// ClusterBenchRow is one sweep point in a ClusterBenchReport.
	ClusterBenchRow = harness.ClusterBenchRow
)

// ClusterBench sweeps offered load against every routing policy with a
// crash and a degrade window in each run ("klocbench -exp cluster").
func ClusterBench(o Options) (*Table, *ClusterBenchReport, error) {
	return harness.ClusterBench(o)
}

// Chaos campaigns (the deterministic fault-schedule fuzzing plane;
// DESIGN.md §12).
type (
	// ChaosConfig describes one chaos campaign: target, schedule count,
	// seed, and per-run sizing.
	ChaosConfig = chaos.Config
	// ChaosSummary is the machine-readable campaign outcome
	// (BENCH_chaos.json).
	ChaosSummary = chaos.Summary
	// ChaosViolation is one invariant-oracle rejection of one run.
	ChaosViolation = chaos.Violation
	// ChaosViolationRecord is one campaign violation with its
	// minimization outcome.
	ChaosViolationRecord = chaos.ViolationRecord
	// ChaosOracle is one invariant check over a run's outcome.
	ChaosOracle = chaos.Oracle
	// ChaosArtifact is a self-contained replay artifact
	// (CHAOS_repro_<hash>.json).
	ChaosArtifact = chaos.Artifact
	// ChaosReplayReport is the outcome of re-executing an artifact.
	ChaosReplayReport = chaos.ReplayReport
	// FaultSchedule is a pure timed injection schedule — what the chaos
	// generator samples and the minimizer shrinks.
	FaultSchedule = fault.Schedule
	// FaultInjection is one scheduled injection of a FaultSchedule.
	FaultInjection = fault.Injection
)

// Chaos campaign targets.
const (
	ChaosTargetCluster = chaos.TargetCluster
	ChaosTargetMachine = chaos.TargetMachine
)

// ChaosSchemaVersion stamps chaos summaries and replay artifacts.
const ChaosSchemaVersion = chaos.SchemaVersion

// RunChaosCampaign executes one chaos campaign ("klocbench -exp
// chaos"): generate fault schedules, run each against the target, judge
// with the invariant-oracle registry, and shrink every violation to a
// minimal repro with a replay artifact.
func RunChaosCampaign(cfg ChaosConfig) (*ChaosSummary, []*ChaosArtifact, error) {
	return chaos.RunCampaign(cfg)
}

// ParseChaosArtifact deserializes and validates a replay artifact.
func ParseChaosArtifact(data []byte) (*ChaosArtifact, error) { return chaos.ParseArtifact(data) }

// ChaosReplay re-executes an artifact's schedule twice ("klocbench
// -exp chaos -replay FILE") and reports whether the violation
// reproduces deterministically.
func ChaosReplay(a *ChaosArtifact) (*ChaosReplayReport, error) { return chaos.Replay(a) }

// RunPerfMeters are one run's deterministic hot-path accounting meters
// (Result.Perf; DESIGN.md §13): accesses counted, frame and op-context
// pool recycling, and the tracer's summary commits.
type RunPerfMeters = harness.PerfMeters
