package memsim

import "testing"

// TestPooledAllocFreeIsAllocFree: a steady-state alloc/access/free
// churn must recycle Frame structs instead of handing garbage to the
// collector. This pins the perfbench alloc-churn result (allocs/op ~ 0)
// as a regression test.
func TestPooledAllocFreeIsAllocFree(t *testing.T) {
	m := NewTwoTier(DefaultTwoTier(1024))
	// Warm the pool with one generation of frames.
	var warm []*Frame
	for i := 0; i < 64; i++ {
		f, err := m.AllocOrder(FastNode, ClassApp, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, f)
	}
	for _, f := range warm {
		m.Free(f)
	}
	avg := testing.AllocsPerRun(200, func() {
		f, err := m.AllocOrder(FastNode, ClassApp, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.Access(0, f, 64, true, 0)
		m.Free(f)
	})
	if avg != 0 {
		t.Fatalf("pooled alloc/access/free allocated %.2f objects per op", avg)
	}
	fresh, reused := m.PerfCounters().FramesFresh, m.PerfCounters().FramesReused
	if reused == 0 {
		t.Fatalf("pool never reused a frame (fresh=%d reused=%d)", fresh, reused)
	}
}
