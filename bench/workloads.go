package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"kloc/internal/chaos"
	"kloc/internal/cluster"
	"kloc/internal/harness"
	"kloc/internal/kernel"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
	"kloc/internal/trace"
	apps "kloc/internal/workload"
)

// size scales a workload down from its benchmark configuration.
type size struct {
	// div is the platform ScaleDiv of the single-run and fleet
	// workloads (the chaos campaign keeps its own default of 256).
	div int
	// frac is the fraction of the workload's length that runs: of the
	// measured window, of the sweep's window, of the campaign's
	// schedules.
	frac float64
}

// fullSize is the benchmark's configuration.
var fullSize = size{div: 64, frac: 1}

// warm is the discarded execution that warms a process before timing.
func (s size) warm() size { return size{div: s.div, frac: s.frac / 10} }

func (s size) scale(d sim.Duration) sim.Duration { return sim.Duration(float64(d) * s.frac) }

// outcome is one execution's simulated output. digest fingerprints
// the deterministic part; exactly one of res, fleet and camp is set.
type outcome struct {
	digest string
	res    *harness.Result
	fleet  *harness.ClusterBenchReport
	camp   *chaos.Summary
}

// workload is one benchmark input: a configuration the simulator runs
// from a seed, and how to build its system without running it.
type workload struct {
	name, why string
	// exec runs one execution. A non-nil probe is the traced pass's
	// instrumentation; only single-run workloads install it.
	exec func(sz size, seed uint64, prb *probe) (*outcome, error)
	// setup builds the system once: kernel.New + Workload.Setup, or one
	// cluster.New.
	setup func(sz size, seed uint64) error
}

// workloads is the catalog, in run order. BENCHMARK.json lists the
// same names and reasons.
var workloads = []workload{
	single("kv-klocs",
		"RocksDB under KLOCs on two tiers, the paper's headline run; kloc, rbtree, lru and percpu do most of the work",
		harness.RunConfig{Workload: "rocksdb", PolicyName: "klocs", Duration: 60 * sim.Millisecond}),
	single("kv-nimble",
		"same RocksDB traffic under Nimble with no KLOC contexts, so a KLOC-layer change should not move it",
		harness.RunConfig{Workload: "rocksdb", PolicyName: "nimble", Duration: 60 * sim.Millisecond}),
	single("net-klocs",
		"Redis under KLOCs: socket contexts with short-lived skbuffs churn the KLOC layer; the only run where netsim matters",
		harness.RunConfig{Workload: "redis", PolicyName: "klocs", Duration: 60 * sim.Millisecond}),
	single("numa-optane",
		"RocksDB under autonuma+klocs in Optane Memory Mode with a mid-run socket move: NUMA access, migration, daemon scans",
		harness.RunConfig{Platform: harness.Optane, Workload: "rocksdb", PolicyName: "autonuma+klocs",
			MoveTaskAtFrac: 0.1, Duration: 60 * sim.Millisecond}),
	single("analytics-klocs",
		"Spark under KLOCs: a few very large contexts, bound by allocation and GC; Table 6's most expensive run",
		harness.RunConfig{Workload: "spark", PolicyName: "klocs", Duration: 30 * sim.Millisecond}),
	{
		name: "fleet",
		why:  "the quick cluster sweep: 17 independent 4-machine fleets, heavy on setup; output must equal BENCH_cluster.json",
		exec: execFleet, setup: setupFleet,
	},
	{
		name: "chaos-quick",
		why:  "the quick chaos campaign (50 schedules): the only run where fault, chaos and trace do real work",
		exec: execChaos, setup: setupChaos,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// single is a workload of one harness.Run: base fixes everything but
// ScaleDiv and Seed, with QuickOptions' warm-up of half the window.
func single(name, why string, base harness.RunConfig) workload {
	exec := func(sz size, seed uint64, prb *probe) (*outcome, error) {
		cfg := base
		cfg.ScaleDiv = sz.div
		cfg.Seed = seed
		cfg.Duration = sz.scale(base.Duration)
		var inner kernel.Policy
		if prb != nil {
			var err error
			if inner, err = policy.ByName(base.PolicyName); err != nil {
				return nil, err
			}
			cfg.Policy = prb.wrap(inner)
		}
		res, err := harness.Run(cfg)
		if err != nil {
			return nil, err
		}
		// harness reads the KLOC figures through a type assertion on the
		// policy it ran, which the traced pass's decorator hides.
		if kp, ok := inner.(*policy.KLOCs); ok {
			res.KlocMetadataBytes = kp.MetadataBytes()
			res.FastPathHitRate = kp.Reg.FastPathHitRate()
		}
		d, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		return &outcome{digest: d, res: res}, nil
	}
	setup := func(sz size, seed uint64) error {
		var mem *memsim.Memory
		if base.Platform == harness.Optane {
			mem = memsim.NewOptane(memsim.DefaultOptane(sz.div))
		} else {
			mem = memsim.NewTwoTier(memsim.DefaultTwoTier(sz.div))
		}
		pol, err := policy.ByName(base.PolicyName)
		if err != nil {
			return err
		}
		wl, err := apps.ByName(base.Workload, apps.Config{ScaleDiv: sz.div})
		if err != nil {
			return err
		}
		k := kernel.New(sim.NewEngine(), mem, pol)
		return wl.Setup(k, sim.NewRNG(seed))
	}
	return workload{name: name, why: why, exec: exec, setup: setup}
}

// resultDigest fingerprints a run's simulated output: every Result
// field except the accounting meters and the optional planes' state,
// which accounting modes and tracing may change without changing the
// simulation.
func resultDigest(res *harness.Result) (string, error) {
	c := *res
	c.Perf = harness.PerfMeters{}
	c.Trace = nil
	c.TraceStats = trace.Stats{}
	c.Sanitize = nil
	// OpCost keeps its samples unexported; its summary stands in.
	d := &res.OpCost
	b, err := json.Marshal(struct {
		Result harness.Result
		OpCost [6]float64
	}{c, [6]float64{float64(d.Count()), d.Mean(), d.Min(), d.Max(), d.Quantile(0.5), d.Quantile(0.99)}})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return sha(b), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// fleetWindow is QuickOptions' batch window; ClusterBench runs each
// sweep point for half of it.
const fleetWindow = 60 * sim.Millisecond

func execFleet(sz size, seed uint64, _ *probe) (*outcome, error) {
	_, rep, err := harness.ClusterBench(harness.Options{ScaleDiv: sz.div, Duration: sz.scale(fleetWindow), Seed: seed})
	if err != nil {
		return nil, err
	}
	data, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	// klocbench writes the report with a trailing newline.
	return &outcome{digest: sha(append(data, '\n')), fleet: rep}, nil
}

func setupFleet(sz size, seed uint64) error {
	_, err := cluster.New(cluster.Config{ScaleDiv: sz.div, Seed: seed, Duration: sz.scale(fleetWindow) / 2, Rate: 1})
	return err
}

// chaosSchedules is the quick campaign's size (`make chaos`).
const chaosSchedules = 50

func execChaos(sz size, seed uint64, _ *probe) (*outcome, error) {
	n := int(math.Round(chaosSchedules * sz.frac))
	if n < 1 {
		n = 1
	}
	sum, _, err := chaos.RunCampaign(chaos.Config{Seed: seed, Schedules: n})
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	return &outcome{digest: sha(data), camp: sum}, nil
}

// setupChaos builds one fleet of the campaign's shape (3 machines of 2
// workers serving redis at ScaleDiv 256, chaos.Config's defaults).
func setupChaos(_ size, seed uint64) error {
	_, err := cluster.New(cluster.Config{
		Machines: 3, Workers: 2, QueueLimit: 16, ScaleDiv: 256, Workload: "redis",
		Seed: seed, Duration: 10 * sim.Millisecond, Rate: 1,
	})
	return err
}

//go:embed golden.json
var goldenJSON []byte

// golden pins each workload's output digest at the full size and the
// pinned seed (fleet is pinned by BENCH_cluster.json instead).
type golden struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// checker judges every execution of one run. At the pinned seed and
// full size each output must equal its pinned form; at any seed every
// execution must equal the run's first, chaos campaigns must be clean
// and fleet sweeps must account for every request.
type checker struct {
	want string // expected digest; empty until the first execution
}

func newChecker(w *workload, sz size, seed uint64, root string) (*checker, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	c := &checker{}
	if sz != fullSize || seed != g.Seed {
		return c, nil
	}
	if w.name == "fleet" {
		data, err := os.ReadFile(filepath.Join(root, "BENCH_cluster.json"))
		if err != nil {
			return nil, err
		}
		c.want = sha(data)
		return c, nil
	}
	c.want = g.Digests[w.name]
	if c.want == "" {
		return nil, fmt.Errorf("golden.json pins no digest for %s", w.name)
	}
	return c, nil
}

func (c *checker) check(out *outcome) error {
	if out.camp != nil && !out.camp.Clean {
		return fmt.Errorf("chaos campaign found %d violations", len(out.camp.Violations))
	}
	if out.fleet != nil {
		if got := len(out.fleet.Rows); got != 17 {
			return fmt.Errorf("fleet sweep has %d rows, want 17", got)
		}
		for _, r := range out.fleet.Rows {
			if r.Completed+r.Failed+r.Shed != r.Arrivals {
				return fmt.Errorf("fleet %s@%.1f: %d completed + %d failed + %d shed != %d arrivals",
					r.Route, r.Load, r.Completed, r.Failed, r.Shed, r.Arrivals)
			}
		}
	}
	if c.want == "" {
		c.want = out.digest
	}
	if out.digest != c.want {
		return fmt.Errorf("output digest %.16s, want %.16s", out.digest, c.want)
	}
	return nil
}
