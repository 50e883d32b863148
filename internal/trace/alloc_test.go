package trace

import (
	"testing"

	"kloc/internal/sim"
)

// TestEmitSteadyStateAllocFree: once the ring and the per-context
// tables are warm, Emit must not touch the heap — the ring recycles
// Event slots, the merged name-state table and MRU register avoid
// per-event map inserts, and summary counts commit in run lengths. This
// pins the perfbench alloc-churn result (allocs/op ~ 0 on the trace
// path) as a regression test.
func TestEmitSteadyStateAllocFree(t *testing.T) {
	tr := New(Config{BufferEvents: 1 << 10})
	// Warm up: touch every context, name, and ring slot the measured
	// loop will use, past the ring's wrap point.
	var now sim.Time
	warm := func() {
		for i := 0; i < 1<<12; i++ {
			now += 100
			tr.Emit(AllocSlab, now, uint64(1+i&7), uint64(i), "inode", 0, 600)
		}
	}
	warm()
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		for j := 0; j < 64; j++ {
			now += 100
			tr.Emit(AllocSlab, now, uint64(1+i&7), uint64(i), "inode", 0, 600)
			i++
		}
	})
	if avg != 0 {
		t.Fatalf("Emit allocated %.2f objects per 64-event burst in steady state", avg)
	}
}
