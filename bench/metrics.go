package main

import (
	"math"
	"sort"
)

// metric is one catalog entry. BENCHMARK.json at the repository root
// lists the same entries; catalog_test.go keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	bound float64
}

// endToEnd are what a user of the simulator waits on or pays for. Each
// is a median over the closed-loop executions of one run (times
// normalized to the reference host's speed); peak RSS is the
// process-wide high-water mark. The bounds are as tight as the spread
// of ten runs at ten seeds on a shared 2-vCPU host allows (README.md).
var endToEnd = []metric{
	// How long a researcher waits for a figure, a sweep or a campaign.
	{"run_s", "s", "lower", 0.25},
	// User+sys time: includes GC on the second core, which run_s hides.
	{"cpu_s", "s", "lower", 0.25},
	// Building the system (kernel.New + Workload.Setup, or one
	// cluster.New), paid again by every run of a sweep.
	{"setup_s", "s", "lower", 0.25},
	// How many runs can share the host.
	{"peak_rss_mb", "MB", "lower", 0.2},
	// GC pressure: heap bytes and objects allocated per execution. Both
	// are deterministic at a seed and move a little between seeds.
	{"alloc_mb", "MB", "lower", 0.05},
	{"heap_allocs_m", "M", "lower", 0.1},
}

// layers are the simulator modules a CPU-profile sample can be charged
// to, plus the GC's background workers and everything else.
var layers = []string{
	"sim", "rbtree", "kloc", "lru", "percpu", "metrics", "memsim", "policy",
	"kernel", "kobj", "kstate", "alloc", "fs", "blockdev", "netsim",
	"pressure", "trace", "fault", "workload", "harness", "cluster", "chaos",
	"gc", "other",
}

// perLayer is the traced pass's catalog: every layer's CPU share, then
// each layer's work counters and useful-outcome ratios.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{name: l + ".cpu_share", unit: "%", better: "lower"})
	}
	return append(ms, []metric{
		{name: "profile.samples", unit: "count", better: "higher"},
		{name: "policy.tick_calls", unit: "count", better: "lower"},
		{name: "policy.tick_s", unit: "s", better: "lower"},
		{name: "policy.place_calls", unit: "count", better: "lower"},
		{name: "policy.notify_calls", unit: "count", better: "lower"},
		{name: "kloc.fast_path_hit_rate", unit: "ratio", better: "higher"},
		{name: "kloc.metadata_bytes", unit: "B", better: "lower"},
		{name: "memsim.kernel_refs", unit: "count", better: "lower"},
		{name: "memsim.app_refs", unit: "count", better: "lower"},
		{name: "memsim.migrated_pages", unit: "count", better: "lower"},
		{name: "memsim.frame_reuse_ratio", unit: "ratio", better: "higher"},
		{name: "percpu.commit_ratio", unit: "ratio", better: "lower"},
		{name: "fs.ops", unit: "count", better: "lower"},
		{name: "fs.cache_hit_rate", unit: "ratio", better: "higher"},
		{name: "fs.dentry_hit_rate", unit: "ratio", better: "higher"},
		{name: "fs.journal_commits", unit: "count", better: "lower"},
		{name: "fs.readahead_hit_rate", unit: "ratio", better: "higher"},
		{name: "blockdev.busy_ms_virtual", unit: "ms", better: "lower"},
		{name: "blockdev.io_retries", unit: "count", better: "lower"},
		{name: "netsim.packets", unit: "count", better: "lower"},
		{name: "netsim.driver_demux_ratio", unit: "ratio", better: "higher"},
		{name: "harness.ops", unit: "count", better: "higher"},
		{name: "harness.host_us_per_op", unit: "us/op", better: "lower"},
		{name: "gc.cycles", unit: "count", better: "lower"},
		{name: "gc.pause_ms", unit: "ms", better: "lower"},
		{name: "cluster.requests", unit: "count", better: "higher"},
		{name: "cluster.goodput_ratio", unit: "ratio", better: "higher"},
		{name: "cluster.wasted_ratio", unit: "ratio", better: "lower"},
		{name: "cluster.retries", unit: "count", better: "lower"},
		{name: "cluster.hedges", unit: "count", better: "lower"},
		{name: "chaos.schedules", unit: "count", better: "higher"},
		{name: "chaos.injections", unit: "count", better: "higher"},
		{name: "chaos.determinism_runs", unit: "count", better: "higher"},
		{name: "bench.trace_overhead", unit: "ratio", better: "lower"},
	}...)
}()

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
