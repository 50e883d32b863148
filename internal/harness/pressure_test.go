package harness

import (
	"reflect"
	"strings"
	"testing"

	"kloc/internal/memsim"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/workload"
)

// pressured returns a quick run config with the full plane armed:
// watermarks (derived) and the kswapd daemon.
func pressured(wl string) RunConfig {
	return quickRun(RunConfig{
		PolicyName: "klocs", Workload: wl,
		Pressure: &pressure.Config{KswapdPeriod: sim.Millisecond},
	})
}

// TestPressureRunDeterminism: with watermarks and kswapd armed, two
// same-seed runs must agree on every metric — including the reclaim
// counters, which would drift first if any reclaim path consulted map
// order or shared RNG state.
func TestPressureRunDeterminism(t *testing.T) {
	cfg := pressured("rocksdb")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pressured run nondeterministic:\na: %+v\nb: %+v", a, b)
	}
}

// TestPressureTightFastTierCompletes is the headline robustness claim:
// a workload whose dataset is 2x the fast tier — with total memory only
// 9/8 of the dataset — runs to completion under watermarks + kswapd,
// with no panic and bounded degradation.
func TestPressureTightFastTierCompletes(t *testing.T) {
	for _, wl := range []string{"rocksdb", "redis"} {
		probe, err := workload.ByName(wl, workload.Config{ScaleDiv: 256})
		if err != nil {
			t.Fatal(err)
		}
		dataset := probe.(workload.Sized).DatasetPages()
		tt := memsim.DefaultTwoTier(256)
		tt.FastPages = dataset / 2
		tt.SlowPages = dataset + dataset/8 - tt.FastPages
		cfg := pressured(wl)
		cfg.TwoTier = tt
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s under 2x pressure: %v", wl, err)
		}
		if res.Ops <= 0 || res.Throughput <= 0 {
			t.Fatalf("%s made no progress: %+v", wl, res)
		}
		// Degradation is bounded: the overwhelming majority of ops
		// complete normally.
		if res.DegradedOps*10 > uint64(res.Ops) {
			t.Fatalf("%s: %d/%d ops degraded", wl, res.DegradedOps, res.Ops)
		}
		// The plane actually engaged.
		if res.Pressure.KswapdWakeups == 0 && res.Pressure.DirectReclaims == 0 &&
			res.Mem.WatermarkBlocks == 0 {
			t.Fatalf("%s: pressure plane never engaged: %+v", wl, res.Pressure)
		}
	}
}

// TestPressureShrinkerStatsReported: per-shrinker accounting reaches
// the result, in registration order.
func TestPressureShrinkerStatsReported(t *testing.T) {
	res, err := Run(pressured("rocksdb"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(res.ShrinkerStats))
	for i, s := range res.ShrinkerStats {
		names[i] = s.Name
	}
	want := []string{"fs.pagecache", "fs.dentry", "net.skbuff"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("shrinker stats = %v, want %v", names, want)
	}
}

// TestPressureExperimentRuns: the sweep table builds with the right
// shape and the pressure counters land in the columns.
func TestPressureExperimentRuns(t *testing.T) {
	o := quick()
	o.Workloads = []string{"rocksdb"}
	tbl, err := Experiment("pressure", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want one per fraction", len(tbl.Rows))
	}
	rendered := tbl.String()
	for _, col := range []string{"fast/dataset", "direct-reclaims", "kswapd-pages",
		"oom-evictions", "reserve-dips"} {
		if !strings.Contains(rendered, col) {
			t.Fatalf("missing column %q in:\n%s", col, rendered)
		}
	}
}
