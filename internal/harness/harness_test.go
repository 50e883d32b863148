package harness

import (
	"errors"
	"strings"
	"testing"

	"kloc/internal/fault"
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
	if _, err := Run(quickRun(RunConfig{PolicyName: "bogus", Workload: "rocksdb"})); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Run(quickRun(RunConfig{PolicyName: "naive", Workload: "bogus"})); err == nil {
		t.Fatal("unknown workload accepted")
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
	tb, err := Fig2a(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Filebench is the purest kernel workload: OS share must dominate.
	if !strings.Contains(tb.Rows[0][1], "0.0%") && tb.Rows[0][1] != "0.0%" {
		// app% may be tiny but nonzero; just sanity check format
	}
	if len(tb.Rows[0]) != 5 {
		t.Fatalf("row shape: %v", tb.Rows[0])
	}
}

func TestFig2dShortLifetimes(t *testing.T) {
	o := quick()
	o.Workloads = []string{"rocksdb"}
	tb, err := Fig2d(o)
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
	tb, err := Fig4(o)
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
	tb, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig5cConfigsCumulative(t *testing.T) {
	configs := fig5cConfigs()
	if len(configs) != 6 {
		t.Fatalf("configs = %d, want app-only + 5 groups", len(configs))
	}
	if configs[0].Name != "app-only" || len(configs[0].Groups) != 0 {
		t.Fatalf("first config: %+v", configs[0])
	}
	for i := 1; i < len(configs); i++ {
		if len(configs[i].Groups) != i {
			t.Fatalf("config %d has %d groups", i, len(configs[i].Groups))
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	for _, name := range ExperimentNames() {
		if Experiments[name] == nil {
			t.Fatalf("experiment %q not registered", name)
		}
	}
	if len(Experiments) != len(ExperimentNames()) {
		t.Fatal("registry and name list out of sync")
	}
}

// TestFixedWorkloadExperimentsHonorSelection: the experiments that run
// a fixed workload set run only the selected part of it, and a
// selection that keeps none of it is EINVAL rather than a table of
// workloads nobody asked for.
func TestFixedWorkloadExperimentsHonorSelection(t *testing.T) {
	o := quick()
	o.Workloads = []string{"rocksdb"}
	tab, err := Ablations(o)
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
		if _, err := Experiments[exp](o); !errors.Is(err, fault.EINVAL) {
			t.Errorf("%s on redis,spark: err %v, want EINVAL", exp, err)
		}
	}
	o.Workloads = []string{"filebench"}
	if _, err := Ablations(o); !errors.Is(err, fault.EINVAL) {
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
