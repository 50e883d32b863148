package kloc_test

import (
	"testing"

	"kloc"
	"kloc/internal/cluster"
	"kloc/internal/fault"
	"kloc/internal/policy"
	"kloc/internal/workload"
)

func TestPublicAPISurface(t *testing.T) {
	if got := len(workload.Names()); got != 5 {
		t.Fatalf("Table 3 catalog size = %d", got)
	}
	if got := len(kloc.ExperimentNames()); got != 14 {
		t.Fatalf("experiment registry size = %d", got)
	}
	if got := len(fault.Points()); got != 8 {
		t.Fatalf("fault point catalog size = %d", got)
	}
	if got := len(cluster.RouteNames()); got != 3 {
		t.Fatalf("cluster route catalog size = %d", got)
	}
	for _, name := range []string{"naive", "nimble", "klocs", "autonuma+klocs"} {
		if _, err := policy.ByName(name); err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
	}
	if _, err := policy.ByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := workload.ByName("rocksdb", kloc.WorkloadConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := kloc.Experiment("nope", kloc.QuickOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentRejectsBadOptions: an unknown experiment name, a scale
// divisor below 1, a negative duration, seed 0 and an unknown workload
// are EINVAL from the planning step, before any run starts, and never a
// panic; so are a negative duration handed to Run and a negative scale
// divisor handed to Run, the fleet, a chaos campaign or a replay
// artifact, where zero means the default.
func TestExperimentRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		exp string
		o   kloc.Options
	}{
		{"fig6", kloc.Options{Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
		{"fig6", kloc.Options{ScaleDiv: -64, Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
		{"table6", kloc.Options{Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
		{"fig4", kloc.Options{ScaleDiv: 256, Duration: kloc.Millisecond, Seed: 42, Workloads: []string{"mysql"}}},
		{"faults", kloc.Options{ScaleDiv: 256, Duration: 5 * kloc.Millisecond, Workloads: []string{"rocksdb"}}},
		{"fig4", kloc.Options{ScaleDiv: 256, Duration: -5 * kloc.Millisecond, Seed: 42, Workloads: []string{"redis"}}},
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
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Run with a negative duration", func() error {
			_, err := kloc.Run(kloc.RunConfig{PolicyName: "klocs", Workload: "redis", ScaleDiv: 256, Duration: -5 * kloc.Millisecond})
			return err
		}},
		{"Run with a negative scale divisor", func() error {
			_, err := kloc.Run(kloc.RunConfig{PolicyName: "klocs", Workload: "redis", ScaleDiv: -5, Duration: 5 * kloc.Millisecond})
			return err
		}},
		{"cluster.New with a negative scale divisor", func() error {
			_, err := cluster.New(kloc.ClusterConfig{ScaleDiv: -5, Rate: 1000, Duration: 5 * kloc.Millisecond})
			return err
		}},
		{"RunChaosCampaign with a negative scale divisor", func() error {
			_, _, err := kloc.RunChaosCampaign(kloc.ChaosConfig{Target: kloc.ChaosTargetCluster, Schedules: 1, ScaleDiv: -3})
			return err
		}},
		{"ParseChaosArtifact with a negative scale divisor", func() error {
			_, err := kloc.ParseChaosArtifact([]byte(`{"schema_version": 1, "experiment": "chaos", "target": "cluster", "scale_div": -3, "schedule": {"injections": []}}`))
			return err
		}},
	} {
		err := tc.call()
		if errno, ok := kloc.AsErrno(err); !ok || errno != kloc.EINVAL {
			t.Errorf("%s: err %v, want EINVAL", tc.name, err)
		}
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
