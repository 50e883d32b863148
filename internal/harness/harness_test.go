package harness

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
)

// quick returns fast-running options for tests.
func quick() Options {
	return Options{ScaleDiv: 256, Duration: 10 * sim.Millisecond, Seed: 42}
}

func quickRun(cfg RunConfig) RunConfig {
	cfg.ScaleDiv = 256
	cfg.Duration = 10 * sim.Millisecond
	return cfg
}

func TestRunBasics(t *testing.T) {
	res, err := Run(quickRun(RunConfig{PolicyName: "naive", Workload: "rocksdb"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= 0 || res.Throughput <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Policy != "naive" || res.Workload != "rocksdb" {
		t.Fatalf("identity: %s/%s", res.Policy, res.Workload)
	}
	if res.KernRefs == 0 {
		t.Fatal("no kernel references recorded")
	}
	if res.VirtualTime < 10*sim.Millisecond {
		t.Fatalf("virtual time %v below requested duration", res.VirtualTime)
	}
}

func TestRunUnknownNamesFail(t *testing.T) {
	if _, err := Run(quickRun(RunConfig{PolicyName: "bogus", Workload: "rocksdb"})); !errors.Is(err, fault.EINVAL) {
		t.Fatalf("unknown policy: err %v, want EINVAL", err)
	}
	if _, err := Run(quickRun(RunConfig{PolicyName: "naive", Workload: "mysql"})); !errors.Is(err, fault.EINVAL) {
		t.Fatalf("unknown workload: err %v, want EINVAL", err)
	}
}

// TestRunDeterminismAtScale re-runs redis+klocs at the experiment
// scale (ScaleDiv 64, 60 ms). The longer window drives enough
// checkpoint unlink churn to catch map-iteration-order leaks in the
// inode teardown path that the small quickRun configuration never
// reaches (regression: destroyInode used to free radix nodes in map
// order, perturbing slab state).
func TestRunDeterminismAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := RunConfig{
		PolicyName: "klocs", Workload: "redis",
		ScaleDiv: 64, Duration: 60 * sim.Millisecond,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.VirtualTime != b.VirtualTime || a.Mem.MigratedPages != b.Mem.MigratedPages {
		t.Fatalf("nondeterministic at scale: ops %d/%d vt %v/%v migr %d/%d",
			a.Ops, b.Ops, a.VirtualTime, b.VirtualTime, a.Mem.MigratedPages, b.Mem.MigratedPages)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickRun(RunConfig{PolicyName: "klocs", Workload: "redis"})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.VirtualTime != b.VirtualTime || a.Mem.MigratedPages != b.Mem.MigratedPages {
		t.Fatalf("nondeterministic: ops %d/%d vt %v/%v migr %d/%d",
			a.Ops, b.Ops, a.VirtualTime, b.VirtualTime, a.Mem.MigratedPages, b.Mem.MigratedPages)
	}
	// A different seed must change the run.
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops == a.Ops && c.Mem.Refs == a.Mem.Refs {
		t.Fatal("seed had no effect")
	}
}

func TestAllFastGrowsFastTier(t *testing.T) {
	cfg := quickRun(RunConfig{PolicyName: "all-fast", Workload: "filebench"})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		if res.SlowAllocsByClass[c] != 0 {
			t.Fatalf("all-fast allocated class %d in slow memory", c)
		}
	}
}

func TestOptaneRunWithTaskMove(t *testing.T) {
	res, err := Run(quickRun(RunConfig{
		Platform: Optane, PolicyName: "autonuma", Workload: "cassandra",
		MoveTaskAtFrac: 0.2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.L4Hits == 0 {
		t.Fatal("memory-mode L4 cache never hit")
	}
}

func TestPolicyOverride(t *testing.T) {
	cfg := policy.DefaultKLOCConfig()
	cfg.FastPath = false
	res, err := Run(quickRun(RunConfig{
		Policy: policy.NewKLOCs(cfg), PolicyName: "klocs", Workload: "rocksdb",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.FastPathHitRate != 0 {
		t.Fatalf("fast path disabled but hit rate %v", res.FastPathHitRate)
	}
}

func TestSpeedupOrderingHolds(t *testing.T) {
	// The paper's central ordering on a kernel-heavy workload: all-slow
	// <= nimble-family < klocs <= all-fast. Run at reduced scale.
	thr := map[string]float64{}
	for _, pol := range []string{"all-slow", "nimble", "klocs", "all-fast"} {
		res, err := Run(RunConfig{
			PolicyName: pol, Workload: "filebench",
			ScaleDiv: 64, Duration: 40 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		thr[pol] = res.Throughput
	}
	if !(thr["all-slow"] <= thr["nimble"]*1.05) {
		t.Errorf("nimble (%.0f) below all-slow (%.0f)", thr["nimble"], thr["all-slow"])
	}
	if thr["klocs"] <= thr["nimble"] {
		t.Errorf("klocs (%.0f) not above nimble (%.0f)", thr["klocs"], thr["nimble"])
	}
	if thr["all-fast"] <= thr["klocs"] {
		t.Errorf("all-fast (%.0f) not the ceiling (klocs %.0f)", thr["all-fast"], thr["klocs"])
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Note:   "n",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("x", "y")
	out := tb.String()
	for _, want := range []string{"== T ==", "n", "a", "bb", "x", "y", "--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFig2aRuns(t *testing.T) {
	o := quick()
	o.Workloads = []string{"filebench"}
	tb, err := Experiment("fig2a", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if len(tb.Rows[0]) != 5 {
		t.Fatalf("row shape: %v", tb.Rows[0])
	}
	// Filebench is the purest kernel workload: its OS share
	// (page-cache% + slab%) must dominate its app%.
	share := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v
	}
	app, os := share(tb.Rows[0][1]), share(tb.Rows[0][2])+share(tb.Rows[0][3])
	if os <= app {
		t.Fatalf("filebench OS share %.1f%% does not exceed app %.1f%%: %v", os, app, tb.Rows[0])
	}
}

func TestFig2dShortLifetimes(t *testing.T) {
	o := quick()
	o.Workloads = []string{"rocksdb"}
	tb, err := Experiment("fig2d", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig4QuickShape(t *testing.T) {
	o := quick()
	o.Workloads = []string{"redis"}
	tb, err := Experiment("fig4", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != len(tb.Header) {
		t.Fatalf("table shape: %v", tb.Rows)
	}
}

func TestTable6Runs(t *testing.T) {
	o := quick()
	o.Workloads = []string{"redis"}
	tb, err := Experiment("table6", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

// TestFig5cPlanCumulative: fig5c plans six runs per workload, and run
// i tracks exactly the first i object groups. Run 0, the app-only
// baseline, must track none: a nil IncludedGroups would track every
// group and turn the baseline into full KLOCs.
func TestFig5cPlanCumulative(t *testing.T) {
	p, err := planOf("fig5c", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	groups := kobj.Groups()
	if len(p.groups) != 2 {
		t.Fatalf("fig5c plans %d groups, want one per workload (rocksdb, redis)", len(p.groups))
	}
	for _, g := range p.groups {
		if len(g.runs) != len(groups)+1 {
			t.Fatalf("fig5c plans %d runs for %s, want app-only + %d groups", len(g.runs), g.runs[0].Workload, len(groups))
		}
		for i, run := range g.runs {
			pol, ok := run.Policy.(*policy.KLOCs)
			if !ok {
				t.Fatalf("run %d: policy %T, want *policy.KLOCs", i, run.Policy)
			}
			for _, typ := range kobj.Types() {
				want := slices.Index(groups, kobj.GroupOf(typ)) < i
				if got := pol.UseKlocAllocator(typ); got != want {
					t.Errorf("%s run %d: tracks %v = %v, want %v", run.Workload, i, typ, got, want)
				}
			}
		}
	}
}

// TestPlanRunCounts plans all fourteen experiments at QuickOptions, none
// of them run, and pins how many runs each lists.
func TestPlanRunCounts(t *testing.T) {
	want := map[string]int{
		"fig2a": 5, "fig2b": 10, "fig2c": 5, "fig2d": 2, "fig4": 28, "table6": 5,
		"fig5a": 20, "fig5b": 4, "fig5c": 12, "fig6": 144, "prefetch": 3,
		"ablations": 6, "faults": 24, "pressure": 6,
	}
	total := 0
	for _, name := range ExperimentNames() {
		p, err := planOf(name, QuickOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		for _, g := range p.groups {
			n += len(g.runs)
		}
		if n != want[name] {
			t.Errorf("%s plans %d runs, want %d", name, n, want[name])
		}
		total += n
	}
	if len(ExperimentNames()) != len(want) || total != 274 {
		t.Errorf("%d experiments plan %d runs, want 14 and 274", len(ExperimentNames()), total)
	}
}

// TestFixedWorkloadExperimentsHonorSelection: the experiments that run
// a fixed workload set run only the selected part of it, and a
// selection that keeps none of it is EINVAL rather than a table of
// workloads nobody asked for.
func TestFixedWorkloadExperimentsHonorSelection(t *testing.T) {
	o := quick()
	o.Workloads = []string{"rocksdb"}
	tab, err := Experiment("ablations", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("ablations on rocksdb: %d rows, want its 4 RocksDB variants", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "rocksdb" {
			t.Errorf("ablations on rocksdb ran %s on %s", row[0], row[1])
		}
	}
	o.Workloads = []string{"redis", "spark"}
	for _, exp := range []string{"fig5b", "prefetch"} {
		if _, err := Experiment(exp, o); !errors.Is(err, fault.EINVAL) {
			t.Errorf("%s on redis,spark: err %v, want EINVAL", exp, err)
		}
	}
	o.Workloads = []string{"filebench"}
	if _, err := Experiment("ablations", o); !errors.Is(err, fault.EINVAL) {
		t.Errorf("ablations on filebench: err %v, want EINVAL", err)
	}
}

func TestSlowNodeOf(t *testing.T) {
	if slowNodeOf(RunConfig{Platform: TwoTier}) != memsim.SlowNode {
		t.Fatal("two-tier slow node wrong")
	}
	if slowNodeOf(RunConfig{Platform: Optane}) != memsim.Socket1Node {
		t.Fatal("optane remote node wrong")
	}
}
