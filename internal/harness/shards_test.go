package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"kloc/internal/memsim"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

func shardTestConfig() ShardsConfig {
	// Byte-identity across worker counts holds per shard, so the
	// virtual duration only buys more of the same coverage — shrink it
	// under the race detector to keep the package inside the default
	// test timeout on slow hosts.
	duration := 20 * sim.Millisecond
	if raceDetectorEnabled {
		duration = 5 * sim.Millisecond
	}
	return ShardsConfig{
		Base: RunConfig{
			PolicyName: "klocs",
			Workload:   "rocksdb",
			Seed:       42,
			Duration:   duration,
			Trace:      &trace.Config{Events: []string{"alloc.*", "memsim.migrate"}},
		},
		Shards:  3,
		Workers: 2,
	}
}

// fingerprint renders a Result's full observable surface (pointer
// fields rendered through their exports) so runs can be compared
// byte-for-byte.
func fingerprint(r *Result) string {
	traceText := ""
	if r.Trace != nil {
		traceText = r.Trace.TextString()
	}
	clone := *r
	clone.Trace = nil
	// AllocsByClassNode maps to pointers; render the pointees (sorted
	// by node) or %+v would fingerprint heap addresses.
	var allocs strings.Builder
	nodes := make([]int, 0, len(clone.Mem.AllocsByClassNode))
	for n := range clone.Mem.AllocsByClassNode {
		nodes = append(nodes, int(n))
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		fmt.Fprintf(&allocs, "node%d:%v ", n, *clone.Mem.AllocsByClassNode[memsim.NodeID(n)])
	}
	clone.Mem.AllocsByClassNode = nil
	return fmt.Sprintf("%+v\n--allocs--\n%s\n--trace--\n%s", clone, allocs.String(), traceText)
}

// TestRunShardsMatchesSoloRuns: shard i of a fleet must be
// byte-identical to a solo Run at ShardSeed(seed, i) — the shard pool
// changes scheduling, never results.
func TestRunShardsMatchesSoloRuns(t *testing.T) {
	cfg := shardTestConfig()
	fleet, err := RunShards(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Results) != cfg.Shards {
		t.Fatalf("got %d results, want %d", len(fleet.Results), cfg.Shards)
	}
	for s, got := range fleet.Results {
		solo := cfg.Base
		solo.Seed = ShardSeed(cfg.Base.Seed, s)
		want, err := Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("shard %d diverged from its solo run", s)
		}
	}
}

// TestRunShardsWorkerCountInvariance: worker count is a wall-clock
// knob only; per-shard results and traces must be byte-identical at
// 1, 2, and 4 workers, at 0 (defaults to 1), and at more workers than
// shards (the extra workers idle).
func TestRunShardsWorkerCountInvariance(t *testing.T) {
	prints := func(workers int) []string {
		cfg := shardTestConfig()
		cfg.Workers = workers
		fleet, err := RunShards(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(fleet.Results))
		for s, r := range fleet.Results {
			out[s] = fingerprint(r)
		}
		return out
	}
	want := prints(1)
	for _, workers := range []int{2, 4, 0, shardTestConfig().Shards + 3} {
		if got := prints(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different shard results than workers=1", workers)
		}
	}
}

// TestShardedDeterminismAcrossGOMAXPROCS: the same seed at
// GOMAXPROCS=1, 2, and NumCPU must produce byte-identical per-shard
// results and trace exports.
func TestShardedDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func() []string {
		cfg := shardTestConfig()
		cfg.Workers = 4
		fleet, err := RunShards(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(fleet.Results))
		for s, r := range fleet.Results {
			out[s] = fingerprint(r)
		}
		return out
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	want := run()
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d changed shard results", procs)
		}
	}
}
