// Package perfbench is the hot-path benchmark harness behind
// `klocbench -exp perf` (PERFORMANCE.md). It runs each stage — three
// micro stages over the trace, frame and knode-index hot paths, and one
// end-to-end simulation — once, and reports a deterministic core
// (events processed, accumulator adds vs committed net deltas, pool
// recycling, trace summary commits) plus, when a wall clock is
// injected, wall metrics (events/sec, sampled p95 ns/event, a
// long-block contention proxy, allocs/op).
//
// The sweep also carries the lane sweep: the same sharded fleet
// (harness.RunShards) under worker counts 1/2/4, whose deterministic
// results must be bit-identical across rows (enforced — a digest
// mismatch fails the sweep) and whose wall section reports the
// measured elapsed time and the host's CPU count.
//
// Determinism contract: the sweep's simulated work and every
// deterministic counter are byte-for-byte reproducible at a given seed
// — the BENCH_perf.json report is identical across two same-seed runs.
// Wall metrics are inherently machine-dependent, so they print to
// stdout but enter the JSON only when Config.IncludeWall is set (CI's
// byte-identity check runs without it). The wall clock itself is an
// injected dependency (Config.Now): this package never reads time.Now,
// keeping it usable from deterministic tests with a fake clock.
package perfbench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"kloc/internal/harness"
	"kloc/internal/kloc"
	"kloc/internal/memsim"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// SchemaVersion stamps BENCH_perf.json so downstream consumers can
// detect shape changes. Version 2 added the lane_sweep section;
// version 3 dropped its epochs field and modeled span numbers; version
// 4 dropped the accounting variants (one row per stage).
const SchemaVersion = 4

// Config tunes a perf sweep.
type Config struct {
	// Seed drives the end-to-end stage's simulation (default 42).
	Seed uint64
	// Quick shrinks every stage (CI smoke mode).
	Quick bool
	// Now is the injected wall clock (nanoseconds, monotonic). Nil
	// disables wall metrics entirely: the sweep still executes every
	// stage identically and reports the deterministic core.
	Now func() int64
	// IncludeWall copies the wall metrics into the JSON report. Leave
	// off for byte-identical reports across runs (the default); stdout
	// gets the wall numbers either way when Now is set.
	IncludeWall bool
}

// Counters is the deterministic core every stage reports: how much
// bookkeeping the stage did while processing its simulated work.
type Counters struct {
	AccAdds      uint64 `json:"acc_adds"`
	AccCommits   uint64 `json:"acc_commits"`
	FramesFresh  uint64 `json:"frames_fresh"`
	FramesReused uint64 `json:"frames_reused"`
	CtxFresh     uint64 `json:"ctx_fresh"`
	CtxReused    uint64 `json:"ctx_reused"`
	TraceCommits uint64 `json:"trace_commits"`
}

// WallRow is the machine-dependent section of a stage row, present
// only when a wall clock was injected AND Config.IncludeWall was set.
type WallRow struct {
	ElapsedNs    int64   `json:"elapsed_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// P95NsPerEvent / MedianNsPerEvent summarize per-block hot-path
	// latency: each measured block's elapsed wall time divided by its
	// event count, sampled across Blocks blocks.
	P95NsPerEvent    float64 `json:"p95_ns_per_event"`
	MedianNsPerEvent float64 `json:"median_ns_per_event"`
	// LongBlocks is the contention proxy: blocks whose per-event time
	// exceeded longBlockFactor x the median (GC pauses, allocator
	// slow paths, scheduler noise).
	LongBlocks int `json:"long_blocks"`
	Blocks     int `json:"blocks"`
	// AllocsPerOp is the heap-allocation rate over the measured pass
	// (runtime.MemStats Mallocs delta / events).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// StageRow is one stage's measurement.
type StageRow struct {
	Stage  string `json:"stage"`
	Events uint64 `json:"events"`
	Counters
	Wall *WallRow `json:"wall,omitempty"`
}

// LaneWall is the machine-dependent section of a lane-sweep row: the
// measured elapsed time, its speedup over the workers=1 row, and the
// CPU count of the host that measured it (a worker count above it
// cannot speed anything up).
type LaneWall struct {
	ElapsedNs       int64   `json:"elapsed_ns"`
	SpeedupVsSerial float64 `json:"speedup_vs_workers1"`
	HostCPUs        int     `json:"host_cpus"`
}

// LaneRow is one worker-count measurement of the shard pool. The
// deterministic fields (Ops, EventsFired, ShardDigest) must be
// identical on every row — worker count may change wall-clock only —
// and the sweep fails if they are not.
type LaneRow struct {
	Workers     int    `json:"workers"`
	Shards      int    `json:"shards"`
	Ops         int    `json:"ops"`
	EventsFired uint64 `json:"events_fired"`
	// ShardDigest hashes per-shard (ops, events fired): the byte-level
	// witness that every worker count computed the same fleet.
	ShardDigest string    `json:"shard_digest"`
	Wall        *LaneWall `json:"wall,omitempty"`
}

// Report is the machine-readable sweep (BENCH_perf.json).
type Report struct {
	SchemaVersion int        `json:"schema_version"`
	Experiment    string     `json:"experiment"`
	Seed          uint64     `json:"seed"`
	Quick         bool       `json:"quick"`
	Stages        []string   `json:"stages"`
	Rows          []StageRow `json:"rows"`
	// LaneSweep holds the parallel-engine rows (same fleet, workers
	// 1/2/4). Deterministic fields identical across rows by contract.
	LaneSweep []LaneRow `json:"lane_sweep,omitempty"`

	// laneWalls mirrors LaneSweep with the wall sections kept in memory
	// for LaneLines even when IncludeWall left them out of the JSON.
	laneWalls []*LaneWall
}

// LaneLines renders one stdout summary line per lane-sweep row,
// including wall numbers whenever a clock was injected (they print
// even when IncludeWall kept them out of the JSON).
func (r *Report) LaneLines() []string {
	var out []string
	for i, row := range r.LaneSweep {
		line := fmt.Sprintf("lane-sweep: workers=%d shards=%d ops=%d fired=%d digest=%s",
			row.Workers, row.Shards, row.Ops, row.EventsFired, row.ShardDigest)
		if i < len(r.laneWalls) && r.laneWalls[i] != nil {
			w := r.laneWalls[i]
			line += fmt.Sprintf(" elapsed=%.1fms wall-speedup=%.2fx host-cpus=%d",
				float64(w.ElapsedNs)/1e6, w.SpeedupVsSerial, w.HostCPUs)
		}
		out = append(out, line)
	}
	return out
}

// JSON renders the report deterministically (map keys sort; two
// same-seed sweeps without IncludeWall are byte-identical).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// longBlockFactor flags a block as "long" (contended) when its
// per-event time exceeds this multiple of the stage median.
const longBlockFactor = 4

// measureBlocks is how many timing samples each micro stage takes.
const measureBlocks = 32

// stageRun is one built, ready-to-measure stage instance: blocks
// execute the work (returning events processed), counters harvests the
// deterministic meters afterwards.
type stageRun struct {
	blocks   []func() int
	counters func() Counters
}

type stageDef struct {
	name string
	// warmup stages run a discarded 1/8-size pass on a fresh instance
	// first (JIT-warm caches, grown maps); the end-to-end stage warms
	// up inside harness.Run instead.
	warmup bool
	build  func(cfg Config) (*stageRun, error)
}

func stages() []stageDef {
	return []stageDef{
		{name: "trace-burst", warmup: true, build: buildTraceBurst},
		{name: "alloc-churn", warmup: true, build: buildAllocChurn},
		{name: "knode-index", warmup: true, build: buildKnodeIndex},
		{name: "end2end", warmup: false, build: buildEnd2End},
	}
}

// stageEvents picks a micro stage's total event count.
func stageEvents(cfg Config, full int) int {
	if cfg.Quick {
		return full / 4
	}
	return full
}

// microBlocks splits total events into measureBlocks closures calling
// step for each event index.
func microBlocks(total int, step func(i int)) []func() int {
	per := total / measureBlocks
	if per < 1 {
		per = 1
	}
	blocks := make([]func() int, 0, measureBlocks)
	for b := 0; b < measureBlocks; b++ {
		start := b * per
		blocks = append(blocks, func() int {
			for i := start; i < start+per; i++ {
				step(i)
			}
			return per
		})
	}
	return blocks
}

// buildTraceBurst exercises the tracer's Emit hot path: a bursty
// stream (runs of the same context, rotating event names) that the
// batched summary path can run-length compress.
func buildTraceBurst(cfg Config) (*stageRun, error) {
	total := stageEvents(cfg, 1<<18)
	tr := trace.New(trace.Config{BufferEvents: 1 << 12})
	step := func(i int) {
		// Context changes every 256 events: long runs for the batched
		// summary, but enough breaks to exercise its flush. The name
		// rotates so the merged name-state table sees more than one
		// hot entry (call sites stay constant for the trace catalog).
		ctx := uint64(1 + (i>>8)&7)
		now := sim.Time(i * 100)
		switch i & 3 {
		case 0:
			tr.Emit(trace.AllocSlab, now, ctx, uint64(i), "cache", 0, 64)
		case 1:
			tr.Emit(trace.AllocPage, now, ctx, uint64(i), "cache", 0, 64)
		case 2:
			tr.Emit(trace.ObjFree, now, ctx, uint64(i), "cache", 0, 64)
		default:
			tr.Emit(trace.NetRx, now, ctx, uint64(i), "cache", 0, 64)
		}
	}
	return &stageRun{
		blocks: microBlocks(total, step),
		counters: func() Counters {
			return Counters{TraceCommits: tr.SummaryCommits()}
		},
	}, nil
}

// buildAllocChurn exercises the frame alloc/access/free hot path over
// a sliding window of live frames: Frame structs recycle through the
// freelist, access stats accumulate per CPU, and the live table stays
// dense.
func buildAllocChurn(cfg Config) (*stageRun, error) {
	total := stageEvents(cfg, 1<<17)
	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(1024))
	const window = 64
	live := make([]*memsim.Frame, 0, window)
	step := func(i int) {
		f, err := mem.AllocOrder(memsim.FastNode, memsim.ClassCache, 0, sim.Time(i))
		if err != nil {
			// Capacity exhausted (cannot happen at this window size,
			// but degrade by draining rather than crashing).
			for _, g := range live {
				mem.Free(g)
			}
			live = live[:0]
			return
		}
		mem.Access(i&3, f, 256, i&1 == 0, sim.Time(i))
		live = append(live, f)
		if len(live) >= window {
			mem.Free(live[0])
			live = live[1:]
		}
	}
	return &stageRun{
		blocks: microBlocks(total, step),
		counters: func() Counters {
			pc := mem.PerfCounters()
			return Counters{AccAdds: pc.AccAdds, AccCommits: pc.AccCommits,
				FramesFresh: pc.FramesFresh, FramesReused: pc.FramesReused}
		},
	}, nil
}

// buildKnodeIndex exercises the knode registry's dense by-ID hot path
// (TouchID/GetByID on every page access attribution).
func buildKnodeIndex(cfg Config) (*stageRun, error) {
	total := stageEvents(cfg, 1<<17)
	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(1024))
	reg := kloc.NewRegistry(mem, 4)
	const knodes = 512
	ids := make([]kloc.KnodeID, 0, knodes)
	order := []memsim.NodeID{memsim.FastNode, memsim.SlowNode}
	for j := 0; j < knodes; j++ {
		kn, _, err := reg.MapKnode(uint64(j+1), order, 0)
		if err != nil {
			return nil, fmt.Errorf("perfbench: knode-index setup: %w", err)
		}
		ids = append(ids, kn.ID)
	}
	step := func(i int) {
		// Lookup-dominated: every event resolves an ID (the hot path
		// this stage isolates); recency bookkeeping only every 16th
		// event so TouchID's heavier work does not drown the lookup.
		id := ids[i%knodes]
		reg.GetByID(id)
		if i&15 == 0 {
			reg.TouchID(id, i&3, sim.Time(i))
		}
	}
	return &stageRun{
		blocks:   microBlocks(total, step),
		counters: func() Counters { return Counters{} },
	}, nil
}

// buildEnd2End runs one full measured simulation (policy, workload,
// daemons, tracing off). It is a single block: harness.Run is
// indivisible, so p95 degenerates to the mean and the contention proxy
// stays zero for this stage.
func buildEnd2End(cfg Config) (*stageRun, error) {
	duration := 100 * sim.Millisecond
	if cfg.Quick {
		duration = 20 * sim.Millisecond
	}
	var meters Counters
	block := func() int {
		res, err := harness.Run(harness.RunConfig{
			PolicyName: "klocs",
			Workload:   "rocksdb",
			Seed:       cfg.Seed,
			Duration:   duration,
		})
		if err != nil {
			return 0
		}
		meters = Counters{
			AccAdds: res.Perf.Mem.AccAdds, AccCommits: res.Perf.Mem.AccCommits,
			FramesFresh: res.Perf.Mem.FramesFresh, FramesReused: res.Perf.Mem.FramesReused,
			CtxFresh: res.Perf.CtxFresh, CtxReused: res.Perf.CtxReused,
			TraceCommits: res.Perf.TraceCommits,
		}
		return res.Ops
	}
	return &stageRun{
		blocks:   []func() int{block},
		counters: func() Counters { return meters },
	}, nil
}

// laneSweepShards is the fleet size of the lane sweep: enough shards
// that every swept worker count (1, 2, 4) divides the fleet evenly.
const laneSweepShards = 4

// laneWorkerCounts is the sweep axis: serial, half, and one worker per
// shard.
var laneWorkerCounts = []int{1, 2, 4}

// laneDigest hashes per-shard (ops, events fired) with FNV-1a: the
// determinism witness compared across worker counts.
func laneDigest(rs *harness.ShardsResult) string {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for s, res := range rs.Results {
		mix(uint64(s))
		mix(uint64(res.Ops))
		mix(rs.Fired[s])
	}
	return fmt.Sprintf("%016x", h)
}

// laneSweep runs the same sharded fleet under each worker count,
// verifies the deterministic results are bit-identical across rows,
// and (with a clock) records the measured elapsed wall time.
func laneSweep(cfg Config, rep *Report, t *harness.Table) error {
	duration := 100 * sim.Millisecond
	if cfg.Quick {
		duration = 20 * sim.Millisecond
	}
	base := harness.RunConfig{
		PolicyName: "klocs",
		Workload:   "rocksdb",
		Seed:       cfg.Seed,
		Duration:   duration,
	}

	digest := ""
	var serialElapsed int64
	for _, workers := range laneWorkerCounts {
		var t0 int64
		if cfg.Now != nil {
			t0 = cfg.Now()
		}
		rs, err := harness.RunShards(harness.ShardsConfig{
			Base:    base,
			Shards:  laneSweepShards,
			Workers: workers,
		})
		if err != nil {
			return fmt.Errorf("perfbench: lane-sweep workers=%d: %w", workers, err)
		}
		var elapsed int64
		if cfg.Now != nil {
			elapsed = cfg.Now() - t0
		}
		d := laneDigest(rs)
		if digest == "" {
			digest = d
		} else if d != digest {
			return fmt.Errorf("perfbench: lane-sweep: workers=%d changed the results (digest %s, want %s) — the shard pool's determinism contract is broken", workers, d, digest)
		}
		ops := 0
		for _, res := range rs.Results {
			ops += res.Ops
		}
		var fired uint64
		for _, f := range rs.Fired {
			fired += f
		}
		row := LaneRow{Workers: workers, Shards: laneSweepShards,
			Ops: ops, EventsFired: fired, ShardDigest: d}
		cells := []string{fmt.Sprintf("lane-sweep workers=%d", workers),
			fmt.Sprintf("%d", fired), "-", "-", "-", "-"}
		if cfg.Now != nil && elapsed > 0 {
			if workers == 1 {
				serialElapsed = elapsed
			}
			wall := &LaneWall{ElapsedNs: elapsed, HostCPUs: runtime.NumCPU()}
			if serialElapsed > 0 {
				wall.SpeedupVsSerial = float64(serialElapsed) / float64(elapsed)
			}
			rep.laneWalls = append(rep.laneWalls, wall)
			if cfg.IncludeWall {
				row.Wall = wall
			}
			cells = append(cells, fmt.Sprintf("%.0f", float64(fired)/(float64(elapsed)/1e9)),
				"-", "-", "-")
		} else {
			rep.laneWalls = append(rep.laneWalls, nil)
			cells = append(cells, "-", "-", "-", "-")
		}
		rep.LaneSweep = append(rep.LaneSweep, row)
		t.AddRow(cells...)
	}
	return nil
}

// measure executes one built stage instance, timing each block through
// the injected clock (no-op clock when nil: the work still runs so the
// deterministic counters are identical with and without timing).
func measure(run *stageRun, now func() int64) (events uint64, wall *WallRow) {
	var before, after runtime.MemStats
	if now != nil {
		runtime.ReadMemStats(&before)
	}
	var elapsed int64
	perEvent := make([]float64, 0, len(run.blocks))
	for _, block := range run.blocks {
		var t0 int64
		if now != nil {
			t0 = now()
		}
		n := block()
		if now != nil && n > 0 {
			dt := now() - t0
			elapsed += dt
			perEvent = append(perEvent, float64(dt)/float64(n))
		}
		events += uint64(n)
	}
	if now == nil || len(perEvent) == 0 || elapsed <= 0 {
		return events, nil
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(perEvent)
	median := perEvent[len(perEvent)/2]
	p95 := perEvent[(len(perEvent)*95+99)/100-1]
	long := 0
	for _, v := range perEvent {
		if v > longBlockFactor*median {
			long++
		}
	}
	return events, &WallRow{
		ElapsedNs:        elapsed,
		EventsPerSec:     float64(events) / (float64(elapsed) / 1e9),
		P95NsPerEvent:    p95,
		MedianNsPerEvent: median,
		LongBlocks:       long,
		Blocks:           len(perEvent),
		AllocsPerOp:      float64(after.Mallocs-before.Mallocs) / float64(events),
	}
}

// Run executes the sweep: every stage once, then the lane sweep. It
// returns the rendered table and the machine-readable report.
func Run(cfg Config) (*harness.Table, *Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Now == nil {
		cfg.IncludeWall = false
	}
	defs := stages()
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Experiment:    "perf",
		Seed:          cfg.Seed,
		Quick:         cfg.Quick,
	}
	for _, d := range defs {
		rep.Stages = append(rep.Stages, d.name)
	}
	t := &harness.Table{
		Title: "Hot-path accounting — deterministic meters per stage",
		Note: "deterministic core always; events/sec, p95 ns/event, long blocks (contention proxy) " +
			"and allocs/op need an injected wall clock (see PERFORMANCE.md); lane-sweep rows run " +
			"the same 4-shard fleet at each worker count — results identical by contract, " +
			"measured wall detail on stdout and (with -perf-wall) in BENCH_perf.json",
		Header: []string{"stage", "events", "acc-adds", "acc-commits",
			"reused", "trc-commits", "ev/s", "p95ns", "long", "allocs/op"},
	}
	for _, d := range defs {
		if d.warmup {
			warm, err := d.build(Config{Seed: cfg.Seed, Quick: true})
			if err != nil {
				return nil, nil, err
			}
			// One discarded 1/8-size pass; its instance is dropped so
			// counters start clean on the measured build.
			for _, block := range warm.blocks[:len(warm.blocks)/8+1] {
				block()
			}
		}
		run, err := d.build(cfg)
		if err != nil {
			return nil, nil, err
		}
		events, wall := measure(run, cfg.Now)
		if events == 0 {
			return nil, nil, fmt.Errorf("perfbench: stage %s processed no events", d.name)
		}
		row := StageRow{Stage: d.name, Events: events, Counters: run.counters()}
		cells := []string{d.name, fmt.Sprintf("%d", events),
			fmt.Sprintf("%d", row.AccAdds), fmt.Sprintf("%d", row.AccCommits),
			fmt.Sprintf("%d", row.FramesReused+row.CtxReused),
			fmt.Sprintf("%d", row.TraceCommits)}
		if wall != nil {
			cells = append(cells, fmt.Sprintf("%.0f", wall.EventsPerSec),
				fmt.Sprintf("%.1f", wall.P95NsPerEvent),
				fmt.Sprintf("%d", wall.LongBlocks),
				fmt.Sprintf("%.2f", wall.AllocsPerOp))
			if cfg.IncludeWall {
				row.Wall = wall
			}
		} else {
			cells = append(cells, "-", "-", "-", "-")
		}
		rep.Rows = append(rep.Rows, row)
		t.AddRow(cells...)
	}
	if err := laneSweep(cfg, rep, t); err != nil {
		return nil, nil, err
	}
	return t, rep, nil
}
