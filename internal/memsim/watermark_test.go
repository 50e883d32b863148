package memsim

import "testing"

func TestDeriveWatermarks(t *testing.T) {
	w := DeriveWatermarks(6400)
	if w.Min != 100 || w.Low != 125 || w.High != 150 {
		t.Fatalf("watermarks = %+v", w)
	}
	// Tiny nodes clamp Min to 4 so the reserve is never empty.
	w = DeriveWatermarks(10)
	if w.Min != 4 {
		t.Fatalf("tiny-node Min = %d, want 4", w.Min)
	}
	if w.Zero() {
		t.Fatal("derived watermarks reported zero")
	}
	if (Watermarks{}).Zero() != true {
		t.Fatal("zero value not zero")
	}
}

func TestWatermarkGateBlocksBelowMin(t *testing.T) {
	m := testMem()
	m.Node(FastNode).SetWatermarks(Watermarks{Min: 10, Low: 20, High: 30})
	// 90 allocations leave exactly Min free: all must succeed.
	for i := 0; i < 90; i++ {
		if _, err := m.Alloc(FastNode, ClassApp, 0); err != nil {
			t.Fatalf("alloc %d blocked above Min: %v", i, err)
		}
	}
	// The 91st would dip below Min.
	if _, err := m.Alloc(FastNode, ClassApp, 0); err != ErrNoMemory {
		t.Fatalf("expected ErrNoMemory at the Min watermark, got %v", err)
	}
	if m.Stats.WatermarkBlocks != 1 {
		t.Fatalf("WatermarkBlocks = %d", m.Stats.WatermarkBlocks)
	}
	// The slow node has no watermarks: fallback still succeeds.
	f, err := m.AllocFallback([]NodeID{FastNode, SlowNode}, ClassApp, 0)
	if err != nil || f.Node != SlowNode {
		t.Fatalf("fallback under watermark: %v %+v", err, f)
	}
}

func TestAtomicContextDipsIntoReserve(t *testing.T) {
	m := testMem()
	m.Node(FastNode).SetWatermarks(Watermarks{Min: 10, Low: 20, High: 30})
	for i := 0; i < 90; i++ {
		if _, err := m.Alloc(FastNode, ClassApp, 0); err != nil {
			t.Fatal(err)
		}
	}
	exit := m.EnterAtomic()
	if m.atomicDepth == 0 {
		t.Fatal("not in atomic context")
	}
	// GFP_ATOMIC may take the reserve down to zero pages...
	for i := 0; i < 10; i++ {
		if _, err := m.Alloc(FastNode, ClassSlab, 0); err != nil {
			t.Fatalf("atomic alloc %d failed in reserve: %v", i, err)
		}
	}
	if m.Stats.ReserveDips != 10 {
		t.Fatalf("ReserveDips = %d", m.Stats.ReserveDips)
	}
	// ...but not past genuine exhaustion.
	if _, err := m.Alloc(FastNode, ClassSlab, 0); err != ErrNoMemory {
		t.Fatalf("atomic alloc on a full node: %v", err)
	}
	exit()
	if m.atomicDepth > 0 {
		t.Fatal("atomic context survived exit")
	}
}

func TestEnterAtomicNests(t *testing.T) {
	m := testMem()
	exit1 := m.EnterAtomic()
	exit2 := m.EnterAtomic()
	exit2()
	if m.atomicDepth == 0 {
		t.Fatal("inner exit closed the outer scope")
	}
	exit1()
	if m.atomicDepth > 0 {
		t.Fatal("atomic depth leaked")
	}
}

func TestZeroWatermarksLeaveAllocatorUnchanged(t *testing.T) {
	m := testMem()
	// No watermarks installed: the node empties completely with no
	// blocks and no dips — the legacy behaviour.
	for i := 0; i < 100; i++ {
		if _, err := m.Alloc(FastNode, ClassApp, 0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if m.Stats.WatermarkBlocks != 0 || m.Stats.ReserveDips != 0 {
		t.Fatalf("gate engaged without watermarks: %+v", m.Stats)
	}
}
