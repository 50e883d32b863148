package harness

import (
	"runtime"
	"testing"

	"kloc/internal/sim"
	"kloc/internal/trace"
)

// TestPerfMetersReportBookkeeping: a run must actually take the fast
// paths — recycled ctxs and frames, batched trace commits, one store
// write per counted access — so the perf meters are evidence, not
// noise.
func TestPerfMetersReportBookkeeping(t *testing.T) {
	res, err := Run(RunConfig{
		PolicyName: "klocs",
		Workload:   "rocksdb",
		Duration:   20 * sim.Millisecond,
		Trace:      &trace.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.CtxReused == 0 {
		t.Fatal("run reused no ctx records")
	}
	if res.Perf.Mem.FramesReused == 0 {
		t.Fatal("run reused no frames")
	}
	if pm := res.Perf.Mem; pm.AccAdds == 0 || pm.AccCommits != pm.AccAdds {
		t.Fatalf("accesses counted %d with %d store writes, want as many writes as accesses", pm.AccAdds, pm.AccCommits)
	}
	if res.Perf.TraceCommits == 0 {
		t.Fatal("traced run committed no batched summary deltas")
	}
}

// end2endRun is the run the end-to-end allocation gate measures: the
// paper's headline configuration at a size a unit test can afford.
var end2endRun = RunConfig{
	PolicyName: "klocs",
	Workload:   "rocksdb",
	Seed:       42,
	Duration:   20 * sim.Millisecond,
}

// allocsPerOpCeiling caps end2endRun's heap allocations per simulated
// op. Measured on a 2-CPU host: 3.19 over 89,120 ops; 4.47 before
// fresh frames were carved from chunks and writeback kept its
// dirty-page list; 7.72 before freed kernel objects were rewritten for the next allocation and
// page-cache pages lost their wrapper; 7.97 (the same
// under -race) before page-cache inserts stopped filling frame-keyed
// owner maps and the per-CPU lists stopped keeping per-item CPU sets;
// 22.92 before the op path stopped building CPU lists and
// placement orders, recycled tree nodes and engine events, and queued
// packets by value; 27.73 before kernel objects kept their slab
// bookkeeping on the frame and their allocator in place of a release
// closure, 28.38 before LRU lists, lifetimes and mapped app pages moved
// off ID-keyed maps, and 30.61 before the KLOC open-time and daemon
// checks stopped building frame lists. The ceiling is the measured
// value +10%, rounded up: the count does not depend on machine speed,
// and the slack absorbs what the runtime allocates beside the
// simulation.
const allocsPerOpCeiling = 3.6

// runEnd2End runs end2endRun and returns the result and its heap
// allocations per simulated op (runtime.MemStats.Mallocs delta / Ops).
func runEnd2End(tb testing.TB) (*Result, float64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(end2endRun)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Ops == 0 {
		tb.Fatal("run completed no ops")
	}
	return res, float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
}

// TestEnd2EndAllocsPerOp is the whole-run allocation gate: a change
// that puts the heap back on a hot path of a full KLOC run fails here.
// Unlike wall time, an allocation count can gate CI without flaking.
func TestEnd2EndAllocsPerOp(t *testing.T) {
	res, perOp := runEnd2End(t)
	if perOp > allocsPerOpCeiling {
		t.Fatalf("%.2f allocs/op over %d ops, ceiling %.1f", perOp, res.Ops, allocsPerOpCeiling)
	}
	t.Logf("%.2f allocs/op over %d ops (ceiling %.1f)", perOp, res.Ops, allocsPerOpCeiling)
}

// BenchmarkRun times end2endRun. Besides the per-run ns/op it reports
// wall time and heap allocations per simulated op.
func BenchmarkRun(b *testing.B) {
	ops := 0
	for n := 0; n < b.N; n++ {
		res, perOp := runEnd2End(b)
		ops += res.Ops
		b.ReportMetric(perOp, "allocs/simop")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/simop")
}
