package harness

import (
	"fmt"
	"slices"
	"strings"

	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/workload"
)

// Options tunes an experiment batch. Durations are virtual time; wall
// time scales with them roughly linearly.
type Options struct {
	ScaleDiv int
	Duration sim.Duration
	Seed     uint64
	// Workloads restricts the workload set (nil = the experiment's
	// default set).
	Workloads []string
}

// DefaultOptions runs at full experiment fidelity.
func DefaultOptions() Options {
	return Options{ScaleDiv: 64, Duration: 200 * sim.Millisecond, Seed: 42}
}

// QuickOptions trades fidelity for wall time (bench/CI mode).
func QuickOptions() Options {
	return Options{ScaleDiv: 64, Duration: 60 * sim.Millisecond, Seed: 42}
}

func (o Options) workloads(def []string) []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return def
}

// only returns the part of experiment exp's fixed workload set that
// o.Workloads keeps (all of it when unset), and EINVAL if it keeps none
// of it: a selection can narrow such an experiment, not replace its set.
func (o Options) only(exp string, set ...string) ([]string, error) {
	keep := slices.DeleteFunc(slices.Clone(set), func(wl string) bool {
		return len(o.Workloads) > 0 && !slices.Contains(o.Workloads, wl)
	})
	if len(keep) == 0 {
		return nil, fmt.Errorf("%s runs only %s, which the selection %s leaves out: %w",
			exp, strings.Join(set, ", "), strings.Join(o.Workloads, ","), fault.EINVAL)
	}
	return keep, nil
}

// perfWorkloads are the Fig 4/5/6 set (§6.1 excludes Spark from the
// performance studies).
var perfWorkloads = []string{"filebench", "rocksdb", "redis", "cassandra"}

// allWorkloads are the Fig 2 characterization set.
var allWorkloads = []string{"filebench", "rocksdb", "redis", "cassandra", "spark"}

// A plan is one experiment listed before any of it runs: its table's
// frame (title, note, header) and its runs in groups.
type plan struct {
	Table
	groups []group
}

// A group is runs whose results reduce together: once all of them are
// done, reduce turns their results, in list order, into rows of t.
type group struct {
	runs   []RunConfig
	reduce func(t *Table, r []*Result)
}

// add appends a group of runs and its reducer.
func (p *plan) add(reduce func(t *Table, r []*Result), runs ...RunConfig) {
	p.groups = append(p.groups, group{runs, reduce})
}

// experiments are the paper's experiments in presentation order, each
// with the function that plans it.
var experiments = []struct {
	name string
	plan func(Options) (*plan, error)
}{
	{"fig2a", fig2a}, {"fig2b", fig2b}, {"fig2c", fig2c}, {"fig2d", fig2d},
	{"fig4", fig4}, {"table6", table6}, {"fig5a", fig5a}, {"fig5b", fig5b},
	{"fig5c", fig5c}, {"fig6", fig6}, {"prefetch", prefetch},
	{"ablations", ablations}, {"faults", faultSweep}, {"pressure", pressureSweep},
}

// ExperimentNames lists experiments in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// planOf plans the named experiment without running any of it. An
// unknown name, a scale divisor below 1, an unknown workload and a
// selection the experiment cannot run are EINVAL.
func planOf(name string, o Options) (*plan, error) {
	i := slices.Index(ExperimentNames(), name)
	switch {
	case i < 0:
		return nil, fmt.Errorf("unknown experiment %q (valid: %s): %w",
			name, strings.Join(ExperimentNames(), ", "), fault.EINVAL)
	case o.ScaleDiv < 1:
		return nil, fmt.Errorf("%s: scale divisor %d is below 1: %w", name, o.ScaleDiv, fault.EINVAL)
	}
	for _, wl := range o.Workloads {
		if !slices.Contains(workload.Names(), wl) {
			return nil, fmt.Errorf("unknown workload %q (valid: %s): %w",
				wl, strings.Join(workload.Names(), ", "), fault.EINVAL)
		}
	}
	return experiments[i].plan(o)
}

// CheckExperiment plans the named experiment without running it, so
// that Options the experiment would reject fail before any run starts.
func CheckExperiment(name string, o Options) error {
	_, err := planOf(name, o)
	return err
}

// Experiment plans the named experiment, runs its configs in list order
// at o's scale, duration and seed, and reduces each group's results
// into the experiment's table.
func Experiment(name string, o Options) (*Table, error) {
	p, err := planOf(name, o)
	if err != nil {
		return nil, err
	}
	for _, g := range p.groups {
		res := make([]*Result, len(g.runs))
		for i, cfg := range g.runs {
			cfg.ScaleDiv, cfg.Duration, cfg.Seed = o.ScaleDiv, o.Duration, o.Seed
			if res[i], err = Run(cfg); err != nil {
				return nil, err
			}
		}
		g.reduce(&p.Table, res)
	}
	return &p.Table, nil
}

// withPolicies returns cfg once per named strategy.
func withPolicies(cfg RunConfig, pols ...string) []RunConfig {
	runs := make([]RunConfig, len(pols))
	for i, pol := range pols {
		runs[i] = cfg
		runs[i].PolicyName = pol
	}
	return runs
}

// speedups returns label followed by each result's throughput over
// base's.
func speedups(label string, base *Result, rs []*Result) []string {
	row := []string{label}
	for _, res := range rs {
		row = append(row, f2(res.Throughput/base.Throughput))
	}
	return row
}

// slabPages sums the slab-like page classes: slab caches, the KLOC
// allocator and KLOC metadata.
func slabPages(byClass [6]uint64) uint64 {
	return byClass[memsim.ClassSlab] + byClass[memsim.ClassKloc] + byClass[memsim.ClassMeta]
}

// --- Fig 2: characterization ---

// fig2a reproduces Figure 2a: the memory-footprint split between
// application pages, page-cache pages, and slab allocations, plus raw
// page-allocation counts.
func fig2a(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 2a — memory footprint: kernel objects vs application pages (large inputs)",
		Note:   "shares of total page allocations; raw counts in thousands of pages (scaled platform)",
		Header: []string{"workload", "app%", "page-cache%", "slab%", "total-Kpages"},
	}}
	for _, wl := range o.workloads(allWorkloads) {
		p.add(func(t *Table, r []*Result) {
			byClass := r[0].TotalAllocsByClass
			app, cache := float64(byClass[memsim.ClassApp]), float64(byClass[memsim.ClassCache])
			slab := float64(slabPages(byClass))
			total := max(app+cache+slab, 1)
			t.AddRow(wl, pct(app/total), pct(cache/total), pct(slab/total), f1(total/1000))
		}, RunConfig{PolicyName: "naive", Workload: wl})
	}
	return p, nil
}

// fig2b reproduces Figure 2b: OS vs application page-allocation shares
// for small (10 GB-class) and large (40 GB-class) inputs.
func fig2b(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 2b — OS vs application page allocations, small and large inputs",
		Header: []string{"workload", "small-OS%", "small-app%", "large-OS%", "large-app%"},
	}}
	for _, wl := range o.workloads(allWorkloads) {
		p.add(func(t *Table, r []*Result) {
			row := []string{wl}
			for _, res := range r {
				byClass := res.TotalAllocsByClass
				app := float64(byClass[memsim.ClassApp])
				os := float64(byClass[memsim.ClassCache] + slabPages(byClass))
				total := max(app+os, 1)
				row = append(row, pct(os/total), pct(app/total))
			}
			t.AddRow(row...)
		}, RunConfig{PolicyName: "naive", Workload: wl, WLConfig: workload.Config{Small: true}},
			RunConfig{PolicyName: "naive", Workload: wl})
	}
	return p, nil
}

// fig2c reproduces Figure 2c: the share of memory references hitting
// kernel objects versus application pages.
func fig2c(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 2c — memory references: kernel objects vs application pages",
		Header: []string{"workload", "kernel-refs%", "app-refs%"},
	}}
	for _, wl := range o.workloads(allWorkloads) {
		p.add(func(t *Table, r []*Result) {
			total := max(float64(r[0].KernRefs+r[0].AppRefs), 1)
			t.AddRow(wl, pct(float64(r[0].KernRefs)/total), pct(float64(r[0].AppRefs)/total))
		}, RunConfig{PolicyName: "naive", Workload: wl})
	}
	return p, nil
}

// fig2d reproduces Figure 2d: mean lifetimes of application pages, slab
// objects, and page-cache pages (log-scale in the paper; we print the
// means).
func fig2d(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 2d — object lifetimes (mean)",
		Note:   "kernel objects live orders of magnitude shorter than application pages (§3.3)",
		Header: []string{"workload", "app-pages", "slab-objects", "page-cache"},
	}}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		p.add(func(t *Table, r []*Result) {
			app := r[0].AppLifetime.String()
			if r[0].AppLifetime == 0 {
				app = ">run (never freed)"
			}
			t.AddRow(wl, app, r[0].SlabLifetime.String(), r[0].CacheLifetime.String())
		}, RunConfig{PolicyName: "naive", Workload: wl})
	}
	return p, nil
}

// --- Fig 4: two-tier speedups ---

// fig4 reproduces Figure 4: speedup over All-Slow-Mem for every
// two-tier strategy on every performance workload.
func fig4(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 4 — two-tier platform speedups (normalized to All Slow Mem)",
		Header: append([]string{"workload"}, policy.TwoTierNames()...),
	}}
	for _, wl := range o.workloads(perfWorkloads) {
		p.add(func(t *Table, r []*Result) { t.AddRow(speedups(wl, r[0], r[1:])...) },
			withPolicies(RunConfig{Workload: wl}, append([]string{"all-slow"}, policy.TwoTierNames()...)...)...)
	}
	return p, nil
}

// --- Table 6: KLOC metadata overhead ---

// table6 reproduces Table 6: the memory-usage increase from KLOC
// metadata, reported at full (unscaled) size.
func table6(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Table 6 — KLOC metadata memory overhead",
		Note:   "simulated metadata bytes scaled back to the paper's full-size platform",
		Header: []string{"workload", "overhead-MB(full-scale)", "overhead-vs-fast-mem"},
	}}
	for _, wl := range o.workloads(allWorkloads) {
		p.add(func(t *Table, r []*Result) {
			fullBytes := float64(r[0].KlocMetadataBytes) * float64(o.ScaleDiv)
			t.AddRow(wl, f1(fullBytes/1e6), pct(fullBytes/8e9)) // 8 GB fast tier
		}, RunConfig{PolicyName: "klocs", Workload: wl})
	}
	return p, nil
}

// --- Fig 5a: Optane Memory Mode ---

// fig5a reproduces Figure 5a: Memory-Mode speedups over the all-remote
// worst case, with the task migrating sockets mid-run.
func fig5a(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 5a — Optane Memory Mode speedups (normalized to all-remote)",
		Header: append([]string{"workload"}, policy.OptaneNames()...),
	}}
	for _, wl := range o.workloads(perfWorkloads) {
		p.add(func(t *Table, r []*Result) { t.AddRow(speedups(wl, r[0], r[1:])...) },
			withPolicies(RunConfig{Platform: Optane, Workload: wl, MoveTaskAtFrac: 0.1},
				append([]string{"all-remote"}, policy.OptaneNames()...)...)...)
	}
	return p, nil
}

// --- Fig 5b: sources of improvement ---

// fig5b reproduces Figure 5b: RocksDB pages allocated in slow memory
// (page cache and slab) and pages migrated, per strategy.
func fig5b(o Options) (*plan, error) {
	if _, err := o.only("fig5b", "rocksdb"); err != nil {
		return nil, err
	}
	p := &plan{Table: Table{
		Title:  "Figure 5b — RocksDB: slow-memory allocations and migrations (two-tier)",
		Header: []string{"strategy", "slow-cache-Kpages", "slow-slab-Kpages", "migrated-Kpages", "demoted", "promoted"},
	}}
	pols := []string{"naive", "nimble", "nimble++", "klocs"}
	p.add(func(t *Table, r []*Result) {
		for i, res := range r {
			slow := res.SlowAllocsByClass
			t.AddRow(pols[i], f1(float64(slow[memsim.ClassCache])/1000), f1(float64(slabPages(slow))/1000),
				f1(float64(res.Mem.MigratedPages)/1000), count(res.Mem.Demotions), count(res.Mem.Promotions))
		}
	}, withPolicies(RunConfig{Workload: "rocksdb"}, pols...)...)
	return p, nil
}

// --- Fig 5c: object-type sensitivity ---

// fig5c reproduces Figure 5c: the contribution of each kernel-object
// group to KLOC performance, normalized to tiering application pages
// only (excluded objects stay in fast memory). Run i tracks the first
// i groups of §7.3's cumulative sets: app-only, then +page-cache,
// +journal, +slab, +socket-buffers, +block-io.
func fig5c(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 5c — incremental kernel-object group contribution (speedup vs app-only KLOCs)",
		Header: []string{"workload", "app-only"},
	}}
	groups := kobj.Groups()
	for _, g := range groups {
		p.Header = append(p.Header, "+"+g.String())
	}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		runs := make([]RunConfig, len(groups)+1)
		for i := range runs {
			cfg := policy.DefaultKLOCConfig()
			// Never nil, not even for app-only: NewKLOCs reads a nil
			// set as every group.
			cfg.IncludedGroups = groups[:i]
			runs[i] = RunConfig{Policy: policy.NewKLOCs(cfg), PolicyName: "klocs", Workload: wl}
		}
		p.add(func(t *Table, r []*Result) { t.AddRow(speedups(wl, r[0], r)...) }, runs...)
	}
	return p, nil
}

// --- Fig 6: capacity and bandwidth sensitivity ---

// fig6 reproduces Figure 6: average speedup over All-Slow-Mem across
// workloads, sweeping fast-memory capacity {4,8,32 GB} and fast:slow
// bandwidth ratio {8,4,2}, with min/max variance across workloads.
func fig6(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title:  "Figure 6 — sensitivity to fast-memory capacity and bandwidth differential",
		Note:   "avg [min..max] speedup vs All Slow Mem across workloads",
		Header: []string{"capacity", "bw-ratio", "nimble", "nimble++", "klocs"},
	}}
	wls := o.workloads(perfWorkloads)
	n := len(wls)
	for _, capGB := range []float64{4, 8, 32} {
		for _, ratio := range []float64{8, 4, 2} {
			tt := memsim.DefaultTwoTier(o.ScaleDiv)
			tt.FastPages = memsim.GB(capGB) / o.ScaleDiv
			tt.BandwidthRatio = ratio
			tt.SlowLatency = 0 // derive from ratio
			// All-slow on every workload first, then each strategy
			// on every workload.
			var runs []RunConfig
			for _, pol := range []string{"all-slow", "nimble", "nimble++", "klocs"} {
				for _, wl := range wls {
					runs = append(runs, RunConfig{PolicyName: pol, Workload: wl, TwoTier: tt})
				}
			}
			p.add(func(t *Table, r []*Result) {
				row := []string{fmt.Sprintf("%.0fGB", capGB), fmt.Sprintf("1:%.0f", ratio)}
				for j := n; j < len(r); j += n {
					s, sum := make([]float64, n), 0.0
					for i := range s {
						s[i] = r[j+i].Throughput / r[i].Throughput
						sum += s[i]
					}
					row = append(row, fmt.Sprintf("%.2f [%.2f..%.2f]", sum/float64(n), slices.Min(s), slices.Max(s)))
				}
				t.AddRow(row...)
			}, runs...)
		}
	}
	return p, nil
}

// --- §7.3 prefetch integration ---

// prefetch reproduces the §7.3 readahead study: no readahead, plain
// readahead, and KLOC-aware readahead under the KLOCs policy, on a
// memory-pressured platform (total memory below the dataset) so that
// cold reads actually reach the device and prefetching has latency to
// hide.
func prefetch(o Options) (*plan, error) {
	if _, err := o.only("prefetch", "rocksdb"); err != nil {
		return nil, err
	}
	p := &plan{Table: Table{
		Title:  "§7.3 — KLOC-aware I/O prefetching (RocksDB, memory-pressured platform)",
		Header: []string{"config", "throughput", "speedup", "readahead-issued", "readahead-hits"},
	}}
	// Slow tier shrunk so the page cache cannot hold the dataset.
	tt := memsim.DefaultTwoTier(o.ScaleDiv)
	tt.SlowPages = memsim.GB(12) / o.ScaleDiv
	p.add(func(t *Table, r []*Result) {
		for i, name := range []string{"no-readahead", "readahead", "readahead+KLOCs"} {
			t.AddRow(name, f1(r[i].Throughput), f2(r[i].Throughput/r[0].Throughput),
				count(r[i].ReadaheadIssued), count(r[i].ReadaheadHits))
		}
	},
		RunConfig{PolicyName: "klocs", Workload: "rocksdb", TwoTier: tt, ReadaheadWindow: -1},
		RunConfig{PolicyName: "klocs", Workload: "rocksdb", TwoTier: tt, ReadaheadWindow: 8},
		RunConfig{PolicyName: "klocs", Workload: "rocksdb", TwoTier: tt, ReadaheadWindow: 8, KlocPrefetch: true})
	return p, nil
}

// --- design ablations (DESIGN.md §4) ---

// ablations evaluates the design choices §4 calls out: the per-CPU
// fast path, the split rbtree, driver-level socket extraction, and the
// relocatable KLOC allocator. Each workload's variants are relative to
// its full design, its first run.
func ablations(o Options) (*plan, error) {
	wls, err := o.only("ablations", "rocksdb", "redis")
	if err != nil {
		return nil, err
	}
	p := &plan{Table: Table{
		Title:  "Design ablations — KLOCs variants (throughput relative to the full design)",
		Header: []string{"variant", "workload", "relative-throughput", "fastpath-hit-rate"},
	}}
	type variant struct {
		name string
		mod  func(*policy.KLOCConfig)
	}
	full := variant{"full-design", func(*policy.KLOCConfig) {}}
	variants := map[string][]variant{
		"rocksdb": {full,
			{"no-percpu-fastpath", func(c *policy.KLOCConfig) { c.FastPath = false }},
			{"single-rbtree", func(c *policy.KLOCConfig) { c.SplitTrees = false }},
			{"pinned-slabs", func(c *policy.KLOCConfig) { c.RelocatableSlabs = false }}},
		"redis": {full, {"tcp-layer-demux", func(c *policy.KLOCConfig) { c.DriverExtract = false }}},
	}
	for _, wl := range wls {
		vs := variants[wl]
		runs := make([]RunConfig, len(vs))
		for i, v := range vs {
			cfg := policy.DefaultKLOCConfig()
			v.mod(&cfg)
			runs[i] = RunConfig{Policy: policy.NewKLOCs(cfg), PolicyName: "klocs", Workload: wl}
		}
		p.add(func(t *Table, r []*Result) {
			for i, res := range r {
				t.AddRow(vs[i].name, wl, f2(res.Throughput/r[0].Throughput), f2(res.FastPathHitRate))
			}
		}, runs...)
	}
	return p, nil
}

// --- robustness: fault-injection sweep ---

// faultSweep sweeps a uniform per-consult fault probability across
// every injection point (block I/O, slab/page allocation, migration,
// packet ingress) for the two-tier strategies. Rate 0 arms the plane
// but never fires, demonstrating bit-identical behaviour to an
// unfaulted run; higher rates exercise the errno propagation,
// retry/backoff, and graceful-degradation paths end to end — no run
// may abort.
func faultSweep(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title: "Robustness — deterministic fault-injection sweep (two-tier)",
		Note:  "uniform fault probability per consult at every injection point; same seed ⇒ same trace",
		Header: []string{"workload", "strategy", "rate", "throughput", "degraded-ops",
			"injected", "io-retries", "io-hard-fails", "alloc-faults", "mig-faults", "rx-drops",
			"direct-reclaims"},
	}}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		for _, pol := range []string{"naive", "nimble", "nimble++", "klocs"} {
			for _, rate := range []float64{0, 1e-4, 1e-3} {
				fcfg := fault.Uniform(o.Seed, rate)
				p.add(func(t *Table, r []*Result) {
					res := r[0]
					t.AddRow(wl, pol, fmt.Sprintf("%.0e", rate), f1(res.Throughput),
						count(res.DegradedOps), count(res.FaultsInjected),
						count(res.IORetries), count(res.IOHardFailures),
						count(res.Mem.AllocFaults), count(res.Mem.MigrationFaults),
						count(res.Net.InjectedDrops), count(res.Pressure.DirectReclaims))
				}, RunConfig{PolicyName: pol, Workload: wl, Fault: &fcfg})
			}
		}
	}
	return p, nil
}

// --- robustness: memory-pressure sweep ---

// pressureSweep reproduces graceful degradation under capacity
// pressure: the fast tier is sized to a fraction of each workload's
// dataset footprint and the full pressure plane is armed — min/low/high
// watermarks on the fast node, the kswapd-analog background reclaimer,
// bounded direct reclaim through the shrinker registry, and OOM-grade
// context eviction as the last resort. Every configuration must
// complete: pressure costs throughput, never correctness, and the same
// seed yields the same counters.
func pressureSweep(o Options) (*plan, error) {
	p := &plan{Table: Table{
		Title: "Robustness — memory-pressure sweep (fast tier sized as a fraction of the dataset)",
		Note:  "watermarks + kswapd armed; shrinker reclaim and OOM eviction keep every run completing",
		Header: []string{"workload", "fast/dataset", "fast-pages", "throughput", "degraded-ops",
			"direct-reclaims", "kswapd-pages", "oom-evictions", "reserve-dips", "wm-blocks"},
	}}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		// Probe the workload's scaled footprint to size the fast tier.
		probe, err := workload.ByName(wl, workload.Config{ScaleDiv: o.ScaleDiv})
		if err != nil {
			return nil, err
		}
		sized, ok := probe.(workload.Sized)
		if !ok {
			return nil, fmt.Errorf("pressure: workload %q does not report a dataset size: %w", wl, fault.EINVAL)
		}
		dataset := sized.DatasetPages()
		for _, frac := range []float64{0.50, 0.75, 0.90} {
			tt := memsim.DefaultTwoTier(o.ScaleDiv)
			tt.FastPages = int(frac * float64(dataset))
			// Size total memory to 33/32 of the dataset: setup fits,
			// but steady-state churn (WAL rotation, checkpoints,
			// compaction transients, slab growth) overruns the slack
			// and has to be paid for by kswapd and direct reclaim.
			tt.SlowPages = dataset + dataset/32 - tt.FastPages
			p.add(func(t *Table, r []*Result) {
				res := r[0]
				t.AddRow(wl, pct(frac), count(uint64(tt.FastPages)), f1(res.Throughput),
					count(res.DegradedOps), count(res.Pressure.DirectReclaims),
					count(res.Pressure.KswapdPages), count(res.Pressure.OOMEvictions),
					count(res.ReserveDips), count(res.Mem.WatermarkBlocks))
			}, RunConfig{PolicyName: "klocs", Workload: wl, TwoTier: tt,
				Pressure: &pressure.Config{KswapdPeriod: sim.Millisecond}})
		}
	}
	return p, nil
}
