package harness

import (
	"testing"

	"kloc/internal/sim"
	"kloc/internal/trace"
)

// TestPerfMetersReportBookkeeping: a run must actually take the fast
// paths — recycled ctxs and frames, batched commits — so the perf
// meters are evidence, not noise.
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
	if res.Perf.Mem.AccCommits == 0 || res.Perf.Mem.AccAdds == 0 {
		t.Fatal("run committed no batched accumulator deltas")
	}
	if res.Perf.TraceCommits == 0 {
		t.Fatal("traced run committed no batched summary deltas")
	}
}
