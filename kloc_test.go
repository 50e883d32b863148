package kloc_test

import (
	"testing"

	"kloc"
)

func TestPublicAPISurface(t *testing.T) {
	if got := len(kloc.ObjectTypes()); got != 12 {
		t.Fatalf("Table 1 taxonomy size = %d", got)
	}
	if got := len(kloc.WorkloadNames()); got != 5 {
		t.Fatalf("Table 3 catalog size = %d", got)
	}
	if got := len(kloc.ExperimentNames()); got != 14 {
		t.Fatalf("experiment registry size = %d", got)
	}
	if got := len(kloc.FaultPoints()); got != 8 {
		t.Fatalf("fault point catalog size = %d", got)
	}
	if got := len(kloc.ClusterRouteNames()); got != 3 {
		t.Fatalf("cluster route catalog size = %d", got)
	}
	for _, name := range []string{"naive", "nimble", "klocs", "autonuma+klocs"} {
		if _, err := kloc.PolicyByName(name); err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
	}
	if _, err := kloc.PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := kloc.WorkloadByName("rocksdb", kloc.WorkloadConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := kloc.Experiment("nope", kloc.QuickOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentRejectsBadOptions: an unknown experiment name, a scale
// divisor below 1 and an unknown workload are EINVAL from the planning
// step, before any run starts, and never a panic.
func TestExperimentRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		exp string
		o   kloc.Options
	}{
		{"fig6", kloc.Options{Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
		{"fig6", kloc.Options{ScaleDiv: -64, Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
		{"table6", kloc.Options{Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
		{"fig4", kloc.Options{ScaleDiv: 256, Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"mysql"}}},
		{"fig99", kloc.QuickOptions()},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Experiment(%q, %+v) panicked: %v", tc.exp, tc.o, r)
				}
			}()
			_, err := kloc.Experiment(tc.exp, tc.o)
			if errno, ok := kloc.AsErrno(err); !ok || errno != kloc.EINVAL {
				t.Errorf("Experiment(%q, %+v): err %v, want EINVAL", tc.exp, tc.o, err)
			}
		}()
	}
}

func TestPublicRunEndToEnd(t *testing.T) {
	res, err := kloc.Run(kloc.RunConfig{
		PolicyName: "klocs",
		Workload:   "redis",
		ScaleDiv:   256,
		Duration:   10 * kloc.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.KlocMetadataBytes <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestManualAssembly(t *testing.T) {
	// The long way around the helpers: build every piece explicitly.
	eng := kloc.NewEngine()
	mem := kloc.NewTwoTier(kloc.DefaultTwoTier(512))
	pol, err := kloc.PolicyByName("klocs")
	if err != nil {
		t.Fatal(err)
	}
	k := kloc.NewKernel(eng, mem, pol)
	wl, err := kloc.WorkloadByName("filebench", kloc.WorkloadConfig{ScaleDiv: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Setup(k, kloc.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	k.Start()
	ctx := k.NewCtx(0)
	if err := wl.Step(k, ctx, 0, kloc.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	if ctx.Cost <= 0 {
		t.Fatal("operation was free")
	}
}

func TestStandaloneRegistry(t *testing.T) {
	mem := kloc.NewTwoTier(kloc.DefaultTwoTier(512))
	reg := kloc.NewRegistry(mem, 4)
	kn, cost, err := reg.MapKnode(1, []kloc.NodeID{0, 1}, 0)
	if err != nil || kn == nil || cost <= 0 {
		t.Fatalf("MapKnode: %v %v %v", kn, cost, err)
	}
	if reg.Len() != 1 {
		t.Fatal("registry empty after MapKnode")
	}
}
