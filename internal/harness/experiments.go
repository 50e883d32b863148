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

// fixedWorkloads are the workload sets of the experiments that run a
// fixed set, which Options.Workloads can only narrow.
var fixedWorkloads = map[string][]string{"fig5b": {"rocksdb"}, "prefetch": {"rocksdb"}, "ablations": {"rocksdb", "redis"}}

// FixedWorkloads returns the part of experiment exp's fixed workload
// set that Options.Workloads keeps (all of it when unset, none for an
// experiment without a fixed set), and EINVAL if it keeps none of it.
func (o Options) FixedWorkloads(exp string) ([]string, error) {
	set := fixedWorkloads[exp]
	keep := slices.DeleteFunc(slices.Clone(set), func(wl string) bool {
		return len(o.Workloads) > 0 && !slices.Contains(o.Workloads, wl)
	})
	if len(set) > 0 && len(keep) == 0 {
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

func (o Options) run(cfg RunConfig) (*Result, error) {
	cfg.ScaleDiv = o.ScaleDiv
	cfg.Duration = o.Duration
	cfg.Seed = o.Seed
	return Run(cfg)
}

// --- Fig 2: characterization ---

// Fig2a reproduces Figure 2a: the memory-footprint split between
// application pages, page-cache pages, and slab allocations, plus raw
// page-allocation counts.
func Fig2a(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 2a — memory footprint: kernel objects vs application pages (large inputs)",
		Note:   "shares of total page allocations; raw counts in thousands of pages (scaled platform)",
		Header: []string{"workload", "app%", "page-cache%", "slab%", "total-Kpages"},
	}
	for _, wl := range o.workloads(allWorkloads) {
		res, err := o.run(RunConfig{PolicyName: "naive", Workload: wl})
		if err != nil {
			return nil, err
		}
		app := float64(res.TotalAllocsByClass[memsim.ClassApp])
		cache := float64(res.TotalAllocsByClass[memsim.ClassCache])
		slab := float64(res.TotalAllocsByClass[memsim.ClassSlab] +
			res.TotalAllocsByClass[memsim.ClassKloc] + res.TotalAllocsByClass[memsim.ClassMeta])
		total := app + cache + slab
		if total == 0 {
			total = 1
		}
		t.AddRow(wl, pct(app/total), pct(cache/total), pct(slab/total),
			f1(total/1000))
	}
	return t, nil
}

// Fig2b reproduces Figure 2b: OS vs application page-allocation shares
// for small (10 GB-class) and large (40 GB-class) inputs.
func Fig2b(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 2b — OS vs application page allocations, small and large inputs",
		Header: []string{"workload", "small-OS%", "small-app%", "large-OS%", "large-app%"},
	}
	for _, wl := range o.workloads(allWorkloads) {
		row := []string{wl}
		for _, small := range []bool{true, false} {
			res, err := o.run(RunConfig{
				PolicyName: "naive", Workload: wl,
				WLConfig: workload.Config{Small: small},
			})
			if err != nil {
				return nil, err
			}
			app := float64(res.TotalAllocsByClass[memsim.ClassApp])
			os := float64(res.TotalAllocsByClass[memsim.ClassCache] +
				res.TotalAllocsByClass[memsim.ClassSlab] +
				res.TotalAllocsByClass[memsim.ClassKloc] + res.TotalAllocsByClass[memsim.ClassMeta])
			total := app + os
			if total == 0 {
				total = 1
			}
			row = append(row, pct(os/total), pct(app/total))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig2c reproduces Figure 2c: the share of memory references hitting
// kernel objects versus application pages.
func Fig2c(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 2c — memory references: kernel objects vs application pages",
		Header: []string{"workload", "kernel-refs%", "app-refs%"},
	}
	for _, wl := range o.workloads(allWorkloads) {
		res, err := o.run(RunConfig{PolicyName: "naive", Workload: wl})
		if err != nil {
			return nil, err
		}
		total := float64(res.KernRefs + res.AppRefs)
		if total == 0 {
			total = 1
		}
		t.AddRow(wl, pct(float64(res.KernRefs)/total), pct(float64(res.AppRefs)/total))
	}
	return t, nil
}

// Fig2d reproduces Figure 2d: mean lifetimes of application pages, slab
// objects, and page-cache pages (log-scale in the paper; we print the
// means).
func Fig2d(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 2d — object lifetimes (mean)",
		Note:   "kernel objects live orders of magnitude shorter than application pages (§3.3)",
		Header: []string{"workload", "app-pages", "slab-objects", "page-cache"},
	}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		res, err := o.run(RunConfig{PolicyName: "naive", Workload: wl})
		if err != nil {
			return nil, err
		}
		app := res.AppLifetime.String()
		if res.AppLifetime == 0 {
			app = ">run (never freed)"
		}
		t.AddRow(wl, app, res.SlabLifetime.String(), res.CacheLifetime.String())
	}
	return t, nil
}

// --- Fig 4: two-tier speedups ---

// Fig4 reproduces Figure 4: speedup over All-Slow-Mem for every
// two-tier strategy on every performance workload.
func Fig4(o Options) (*Table, error) {
	cols := append([]string{"workload"}, policy.TwoTierNames()...)
	t := &Table{
		Title:  "Figure 4 — two-tier platform speedups (normalized to All Slow Mem)",
		Header: cols,
	}
	for _, wl := range o.workloads(perfWorkloads) {
		base, err := o.run(RunConfig{PolicyName: "all-slow", Workload: wl})
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for _, pol := range policy.TwoTierNames() {
			res, err := o.run(RunConfig{PolicyName: pol, Workload: wl})
			if err != nil {
				return nil, err
			}
			row = append(row, f2(res.Throughput/base.Throughput))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// --- Table 6: KLOC metadata overhead ---

// Table6 reproduces Table 6: the memory-usage increase from KLOC
// metadata, reported at full (unscaled) size.
func Table6(o Options) (*Table, error) {
	t := &Table{
		Title:  "Table 6 — KLOC metadata memory overhead",
		Note:   "simulated metadata bytes scaled back to the paper's full-size platform",
		Header: []string{"workload", "overhead-MB(full-scale)", "overhead-vs-fast-mem"},
	}
	for _, wl := range o.workloads(allWorkloads) {
		res, err := o.run(RunConfig{PolicyName: "klocs", Workload: wl})
		if err != nil {
			return nil, err
		}
		fullBytes := float64(res.KlocMetadataBytes) * float64(o.ScaleDiv)
		fastBytes := 8e9 // 8 GB fast tier
		t.AddRow(wl, f1(fullBytes/1e6), pct(fullBytes/fastBytes))
	}
	return t, nil
}

// --- Fig 5a: Optane Memory Mode ---

// Fig5a reproduces Figure 5a: Memory-Mode speedups over the all-remote
// worst case, with the task migrating sockets mid-run.
func Fig5a(o Options) (*Table, error) {
	cols := append([]string{"workload"}, policy.OptaneNames()...)
	t := &Table{
		Title:  "Figure 5a — Optane Memory Mode speedups (normalized to all-remote)",
		Header: cols,
	}
	for _, wl := range o.workloads(perfWorkloads) {
		base, err := o.run(RunConfig{
			Platform: Optane, PolicyName: "all-remote", Workload: wl, MoveTaskAtFrac: 0.1,
		})
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for _, pol := range policy.OptaneNames() {
			res, err := o.run(RunConfig{
				Platform: Optane, PolicyName: pol, Workload: wl, MoveTaskAtFrac: 0.1,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f2(res.Throughput/base.Throughput))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// --- Fig 5b: sources of improvement ---

// Fig5b reproduces Figure 5b: RocksDB pages allocated in slow memory
// (page cache and slab) and pages migrated, per strategy.
func Fig5b(o Options) (*Table, error) {
	if _, err := o.FixedWorkloads("fig5b"); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 5b — RocksDB: slow-memory allocations and migrations (two-tier)",
		Header: []string{"strategy", "slow-cache-Kpages", "slow-slab-Kpages", "migrated-Kpages", "demoted", "promoted"},
	}
	for _, pol := range []string{"naive", "nimble", "nimble++", "klocs"} {
		res, err := o.run(RunConfig{PolicyName: pol, Workload: "rocksdb"})
		if err != nil {
			return nil, err
		}
		slowSlab := res.SlowAllocsByClass[memsim.ClassSlab] +
			res.SlowAllocsByClass[memsim.ClassKloc] + res.SlowAllocsByClass[memsim.ClassMeta]
		t.AddRow(pol,
			f1(float64(res.SlowAllocsByClass[memsim.ClassCache])/1000),
			f1(float64(slowSlab)/1000),
			f1(float64(res.Mem.MigratedPages)/1000),
			count(res.Mem.Demotions), count(res.Mem.Promotions))
	}
	return t, nil
}

// --- Fig 5c: object-type sensitivity ---

// fig5cConfigs returns the cumulative group sets of §7.3: app-only,
// then +page-cache, +journal, +slab, +socket-buffers, +block-io.
func fig5cConfigs() []struct {
	Name   string
	Groups []kobj.Group
} {
	cum := []kobj.Group{}
	out := []struct {
		Name   string
		Groups []kobj.Group
	}{{"app-only", []kobj.Group{}}}
	for _, g := range kobj.Groups() {
		cum = append(append([]kobj.Group{}, cum...), g)
		out = append(out, struct {
			Name   string
			Groups []kobj.Group
		}{"+" + g.String(), cum})
	}
	return out
}

// Fig5c reproduces Figure 5c: the contribution of each kernel-object
// group to KLOC performance, normalized to tiering application pages
// only (excluded objects stay in fast memory).
func Fig5c(o Options) (*Table, error) {
	configs := fig5cConfigs()
	cols := []string{"workload"}
	for _, c := range configs {
		cols = append(cols, c.Name)
	}
	t := &Table{
		Title:  "Figure 5c — incremental kernel-object group contribution (speedup vs app-only KLOCs)",
		Header: cols,
	}
	wls := o.workloads([]string{"rocksdb", "redis"})
	for _, wl := range wls {
		row := []string{wl}
		var base float64
		for i, c := range configs {
			kcfg := policy.DefaultKLOCConfig()
			kcfg.IncludedGroups = c.Groups
			res, err := o.run(RunConfig{
				Policy: policy.NewKLOCs(kcfg), PolicyName: "klocs", Workload: wl,
			})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = res.Throughput
			}
			row = append(row, f2(res.Throughput/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// --- Fig 6: capacity and bandwidth sensitivity ---

// Fig6 reproduces Figure 6: average speedup over All-Slow-Mem across
// workloads, sweeping fast-memory capacity {4,8,32 GB} and fast:slow
// bandwidth ratio {8,4,2}, with min/max variance across workloads.
func Fig6(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 6 — sensitivity to fast-memory capacity and bandwidth differential",
		Note:   "avg [min..max] speedup vs All Slow Mem across workloads",
		Header: []string{"capacity", "bw-ratio", "nimble", "nimble++", "klocs"},
	}
	pols := []string{"nimble", "nimble++", "klocs"}
	wls := o.workloads(perfWorkloads)
	for _, capGB := range []float64{4, 8, 32} {
		for _, ratio := range []float64{8, 4, 2} {
			ttCfg := memsim.DefaultTwoTier(o.ScaleDiv)
			ttCfg.FastPages = memsim.GB(capGB) / o.ScaleDiv
			ttCfg.BandwidthRatio = ratio
			ttCfg.SlowLatency = 0 // derive from ratio

			cells := []string{fmt.Sprintf("%.0fGB", capGB), fmt.Sprintf("1:%.0f", ratio)}
			bases := make(map[string]float64)
			for _, wl := range wls {
				cfg := ttCfg
				base, err := o.run(RunConfig{PolicyName: "all-slow", Workload: wl, TwoTier: &cfg})
				if err != nil {
					return nil, err
				}
				bases[wl] = base.Throughput
			}
			for _, pol := range pols {
				sum, minS, maxS := 0.0, 0.0, 0.0
				for i, wl := range wls {
					cfg := ttCfg
					res, err := o.run(RunConfig{PolicyName: pol, Workload: wl, TwoTier: &cfg})
					if err != nil {
						return nil, err
					}
					s := res.Throughput / bases[wl]
					sum += s
					if i == 0 || s < minS {
						minS = s
					}
					if i == 0 || s > maxS {
						maxS = s
					}
				}
				cells = append(cells, fmt.Sprintf("%.2f [%.2f..%.2f]", sum/float64(len(wls)), minS, maxS))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// --- §7.3 prefetch integration ---

// Prefetch reproduces the §7.3 readahead study: no readahead, plain
// readahead, and KLOC-aware readahead under the KLOCs policy, on a
// memory-pressured platform (total memory below the dataset) so that
// cold reads actually reach the device and prefetching has latency to
// hide.
func Prefetch(o Options) (*Table, error) {
	if _, err := o.FixedWorkloads("prefetch"); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "§7.3 — KLOC-aware I/O prefetching (RocksDB, memory-pressured platform)",
		Header: []string{"config", "throughput", "speedup", "readahead-issued", "readahead-hits"},
	}
	// Slow tier shrunk so the page cache cannot hold the dataset.
	ttCfg := memsim.DefaultTwoTier(o.ScaleDiv)
	ttCfg.SlowPages = memsim.GB(12) / o.ScaleDiv
	configs := []struct {
		name   string
		window int
		klocRA bool
	}{
		{"no-readahead", -1, false},
		{"readahead", 8, false},
		{"readahead+KLOCs", 8, true},
	}
	var base float64
	for _, c := range configs {
		cfg := ttCfg
		res, err := o.run(RunConfig{
			PolicyName: "klocs", Workload: "rocksdb",
			TwoTier: &cfg, KlocPrefetch: c.klocRA, ReadaheadWindow: c.window,
		})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Throughput
		}
		t.AddRow(c.name, f1(res.Throughput), f2(res.Throughput/base),
			count(res.ReadaheadIssued), count(res.ReadaheadHits))
	}
	return t, nil
}

// --- design ablations (DESIGN.md §4) ---

// Ablations evaluates the design choices §4 calls out: the per-CPU
// fast path, the split rbtree, driver-level socket extraction, and the
// relocatable KLOC allocator.
func Ablations(o Options) (*Table, error) {
	wls, err := o.FixedWorkloads("ablations")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Design ablations — KLOCs variants (throughput relative to the full design)",
		Header: []string{"variant", "workload", "relative-throughput", "fastpath-hit-rate"},
	}
	type variant struct {
		name string
		mod  func(*policy.KLOCConfig)
		wl   string
	}
	variants := []variant{
		{"full-design", func(*policy.KLOCConfig) {}, "rocksdb"},
		{"no-percpu-fastpath", func(c *policy.KLOCConfig) { c.FastPath = false }, "rocksdb"},
		{"single-rbtree", func(c *policy.KLOCConfig) { c.SplitTrees = false }, "rocksdb"},
		{"pinned-slabs", func(c *policy.KLOCConfig) { c.RelocatableSlabs = false }, "rocksdb"},
		{"full-design", func(*policy.KLOCConfig) {}, "redis"},
		{"tcp-layer-demux", func(c *policy.KLOCConfig) { c.DriverExtract = false }, "redis"},
	}
	base := map[string]float64{}
	for _, v := range variants {
		if !slices.Contains(wls, v.wl) {
			continue
		}
		cfg := policy.DefaultKLOCConfig()
		v.mod(&cfg)
		res, err := o.run(RunConfig{
			Policy: policy.NewKLOCs(cfg), PolicyName: "klocs", Workload: v.wl,
		})
		if err != nil {
			return nil, err
		}
		if v.name == "full-design" {
			base[v.wl] = res.Throughput
		}
		t.AddRow(v.name, v.wl, f2(res.Throughput/base[v.wl]), f2(res.FastPathHitRate))
	}
	return t, nil
}

// --- robustness: fault-injection sweep ---

// Faults sweeps a uniform per-consult fault probability across every
// injection point (block I/O, slab/page allocation, migration, packet
// ingress) for the two-tier strategies. Rate 0 arms the plane but never
// fires, demonstrating bit-identical behaviour to an unfaulted run;
// higher rates exercise the errno propagation, retry/backoff, and
// graceful-degradation paths end to end — no run may abort.
func Faults(o Options) (*Table, error) {
	t := &Table{
		Title: "Robustness — deterministic fault-injection sweep (two-tier)",
		Note:  "uniform fault probability per consult at every injection point; same seed ⇒ same trace",
		Header: []string{"workload", "strategy", "rate", "throughput", "degraded-ops",
			"injected", "io-retries", "io-hard-fails", "alloc-faults", "mig-faults", "rx-drops",
			"direct-reclaims"},
	}
	rates := []float64{0, 1e-4, 1e-3}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		for _, pol := range []string{"naive", "nimble", "nimble++", "klocs"} {
			for _, rate := range rates {
				fcfg := fault.Uniform(o.Seed, rate)
				res, err := o.run(RunConfig{PolicyName: pol, Workload: wl, Fault: &fcfg})
				if err != nil {
					return nil, err
				}
				t.AddRow(wl, pol, fmt.Sprintf("%.0e", rate), f1(res.Throughput),
					count(res.DegradedOps), count(res.FaultsInjected),
					count(res.IORetries), count(res.IOHardFailures),
					count(res.Mem.AllocFaults), count(res.Mem.MigrationFaults),
					count(res.Net.InjectedDrops), count(res.Pressure.DirectReclaims))
			}
		}
	}
	return t, nil
}

// --- robustness: memory-pressure sweep ---

// Pressure reproduces graceful degradation under capacity pressure: the
// fast tier is sized to a fraction of each workload's dataset footprint
// and the full pressure plane is armed — min/low/high watermarks on the
// fast node, the kswapd-analog background reclaimer, bounded direct
// reclaim through the shrinker registry, and OOM-grade context eviction
// as the last resort. Every configuration must complete: pressure costs
// throughput, never correctness, and the same seed yields the same
// counters.
func Pressure(o Options) (*Table, error) {
	t := &Table{
		Title: "Robustness — memory-pressure sweep (fast tier sized as a fraction of the dataset)",
		Note:  "watermarks + kswapd armed; shrinker reclaim and OOM eviction keep every run completing",
		Header: []string{"workload", "fast/dataset", "fast-pages", "throughput", "degraded-ops",
			"direct-reclaims", "kswapd-pages", "oom-evictions", "reserve-dips", "wm-blocks"},
	}
	fracs := []float64{0.50, 0.75, 0.90}
	for _, wl := range o.workloads([]string{"rocksdb", "redis"}) {
		// Probe the workload's scaled footprint to size the fast tier.
		probe, err := workload.ByName(wl, workload.Config{ScaleDiv: o.ScaleDiv})
		if err != nil {
			return nil, err
		}
		sized, ok := probe.(workload.Sized)
		if !ok {
			return nil, fmt.Errorf("pressure: workload %q does not report a dataset size", wl)
		}
		dataset := sized.DatasetPages()
		for _, frac := range fracs {
			ttCfg := memsim.DefaultTwoTier(o.ScaleDiv)
			ttCfg.FastPages = int(frac * float64(dataset))
			// Size total memory to 9/8 of the dataset: setup fits,
			// but steady-state churn (WAL rotation, checkpoints,
			// compaction transients, slab growth) overruns the slack
			// and has to be paid for by kswapd and direct reclaim.
			ttCfg.SlowPages = dataset + dataset/32 - ttCfg.FastPages
			pcfg := pressure.Config{KswapdPeriod: sim.Millisecond}
			res, err := o.run(RunConfig{
				PolicyName: "klocs", Workload: wl,
				TwoTier: &ttCfg, Pressure: &pcfg,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(wl, pct(frac), count(uint64(ttCfg.FastPages)), f1(res.Throughput),
				count(res.DegradedOps), count(res.Pressure.DirectReclaims),
				count(res.Pressure.KswapdPages), count(res.Pressure.OOMEvictions),
				count(res.ReserveDips), count(res.Mem.WatermarkBlocks))
		}
	}
	return t, nil
}

// Experiments maps experiment IDs to their functions.
var Experiments = map[string]func(Options) (*Table, error){
	"fig2a":     Fig2a,
	"fig2b":     Fig2b,
	"fig2c":     Fig2c,
	"fig2d":     Fig2d,
	"fig4":      Fig4,
	"table6":    Table6,
	"fig5a":     Fig5a,
	"fig5b":     Fig5b,
	"fig5c":     Fig5c,
	"fig6":      Fig6,
	"prefetch":  Prefetch,
	"ablations": Ablations,
	"faults":    Faults,
	"pressure":  Pressure,
}

// ExperimentNames lists experiments in presentation order.
func ExperimentNames() []string {
	return []string{"fig2a", "fig2b", "fig2c", "fig2d", "fig4", "table6",
		"fig5a", "fig5b", "fig5c", "fig6", "prefetch", "ablations", "faults", "pressure"}
}
