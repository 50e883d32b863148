package alloc

import (
	"errors"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/memsim"
)

func mem() *memsim.Memory {
	return memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 64, SlowPages: 256,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 2,
	})
}

var order = []memsim.NodeID{memsim.FastNode, memsim.SlowNode}

// liveFrames counts m's live frames and the objects on them; in these
// tests every frame of m belongs to the one cache or arena under test.
func liveFrames(m *memsim.Memory) (frames, objects int) {
	m.EachLive(func(f *memsim.Frame) {
		frames++
		objects += int(f.InUse)
	})
	return frames, objects
}

func TestSlabPacking(t *testing.T) {
	m := mem()
	c, err := NewSlabCache(m, "dentry", 192)
	if err != nil {
		t.Fatal(err)
	}
	per := c.perFrame
	if per != memsim.PageSize/192 {
		t.Fatalf("objects per frame = %d", per)
	}
	var objs []*memsim.Frame
	for i := 0; i < per; i++ {
		f, _, err := c.Alloc(order, 0)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, f)
	}
	if frames, _ := liveFrames(m); frames != 1 {
		t.Fatalf("one frame should hold %d objects, used %d frames", per, frames)
	}
	f, _, err := c.Alloc(order, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames, live := liveFrames(m)
	if frames != 2 {
		t.Fatalf("overflow object should open frame 2, got %d", frames)
	}
	if live != per+1 {
		t.Fatalf("live = %d", live)
	}
	// Free everything; frames return to the memory system.
	c.Free(f)
	for _, f := range objs {
		c.Free(f)
	}
	if frames, _ := liveFrames(m); frames != 0 || m.Node(memsim.FastNode).Used() != 0 {
		t.Fatal("slab frames leaked")
	}
}

func TestSlabFramesArePinned(t *testing.T) {
	c, _ := NewSlabCache(mem(), "inode", 600)
	f, _, _ := c.Alloc(order, 0)
	if !f.Pinned {
		t.Fatal("slab frame not pinned")
	}
	if f.Class != memsim.ClassSlab {
		t.Fatalf("slab frame class = %v", f.Class)
	}
}

func TestKlocCacheRelocatable(t *testing.T) {
	m := mem()
	c, _ := NewKlocCache(m, "inode-kloc", 600)
	f, cost, _ := c.Alloc(order, 0)
	if f.Pinned {
		t.Fatal("KLOC allocator must produce relocatable frames")
	}
	if f.Class != memsim.ClassKloc {
		t.Fatalf("class = %v", f.Class)
	}
	if cost < SlabAllocCost {
		t.Fatal("KLOC alloc should not be cheaper than slab")
	}
	if !m.CanMigrate(f, memsim.SlowNode) {
		t.Fatal("KLOC frame should be migratable")
	}
}

func TestSlabCostOrdering(t *testing.T) {
	// §4.4: slab < kloc < page.
	if !(SlabAllocCost < KlocAllocCost && KlocAllocCost < PageAllocCost) {
		t.Fatal("allocation cost ordering violates the paper's model")
	}
}

// TestSlabDoubleFree: freeing a frame that holds no live object, or a
// nil frame, changes nothing.
func TestSlabDoubleFree(t *testing.T) {
	m := mem()
	c, _ := NewSlabCache(m, "x", 1024)
	f, _, _ := c.Alloc(order, 0)
	c.Free(f)
	if frames, live := liveFrames(m); frames != 0 || live != 0 || len(c.partial) != 0 {
		t.Fatal("first free did not release the frame")
	}
	c.Free(f)
	c.Free(nil)
	if frames, live := liveFrames(m); frames != 0 || live != 0 || len(c.partial) != 0 {
		t.Fatal("double or nil free changed the cache")
	}
}

func TestSlabPartialReuse(t *testing.T) {
	c, _ := NewSlabCache(mem(), "x", 2048) // 2 per frame
	a, _, _ := c.Alloc(order, 0)
	b, _, _ := c.Alloc(order, 0)
	if a.ID != b.ID {
		t.Fatal("two objects should share one frame")
	}
	c.Free(a)
	d, _, _ := c.Alloc(order, 0)
	if d.ID != b.ID {
		t.Fatal("freed slot not reused")
	}
}

func TestSlabFullObjectPerFrame(t *testing.T) {
	c, _ := NewSlabCache(mem(), "page-sized", memsim.PageSize)
	if c.perFrame != 1 {
		t.Fatalf("page-sized slab packs %d", c.perFrame)
	}
	a, _, _ := c.Alloc(order, 0)
	b, _, _ := c.Alloc(order, 0)
	if a.ID == b.ID {
		t.Fatal("page-sized objects must not share frames")
	}
}

func TestSlabExhaustion(t *testing.T) {
	m := memsim.NewTwoTier(memsim.TwoTierConfig{FastPages: 1, SlowPages: 1, FastBandwidth: 30, CPUs: 1})
	c, _ := NewSlabCache(m, "x", memsim.PageSize)
	if _, _, err := c.Alloc(order, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Alloc(order, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Alloc(order, 0); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

func TestArenaBumpAllocation(t *testing.T) {
	m := mem()
	a := NewArena(m)
	// 2048-byte objects: two per frame.
	s1, c1, err := a.Alloc(order, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= KlocAllocCost {
		t.Fatal("first alloc should pay the frame-fill cost")
	}
	s2, c2, _ := a.Alloc(order, 2048, 0)
	if c2 != KlocAllocCost {
		t.Fatal("second alloc should reuse the frame")
	}
	if s1.ID != s2.ID {
		t.Fatal("bump allocation split across frames prematurely")
	}
	s3, _, _ := a.Alloc(order, 2048, 0)
	if s3.ID == s1.ID {
		t.Fatal("overflow object did not open a new frame")
	}
	if frames, live := liveFrames(m); frames != 2 || live != 3 {
		t.Fatalf("frames=%d live=%d", frames, live)
	}
	// Frames are relocatable ClassKloc.
	if s1.Pinned || s1.Class != memsim.ClassKloc {
		t.Fatalf("frame attrs: %+v", s1)
	}
}

func TestArenaFreeReclaimsFrames(t *testing.T) {
	m := mem()
	a := NewArena(m)
	s1, _, _ := a.Alloc(order, 2048, 0)
	s2, _, _ := a.Alloc(order, 2048, 0)
	a.Free(s1)
	if frames, _ := liveFrames(m); frames != 1 {
		t.Fatal("frame freed while objects remain")
	}
	a.Free(s2)
	if frames, _ := liveFrames(m); frames != 0 || a.current != nil {
		t.Fatal("empty arena kept frames")
	}
	a.Free(s2)
	if frames, live := liveFrames(m); frames != 0 || live != 0 {
		t.Fatal("double free did work")
	}
	// The arena is reusable after draining.
	if _, _, err := a.Alloc(order, 100, 0); err != nil {
		t.Fatal(err)
	}
}

func TestArenaOversizeClamps(t *testing.T) {
	m := mem()
	a := NewArena(m)
	s, _, err := a.Alloc(order, memsim.PageSize*4, 0)
	if err != nil || s == nil {
		t.Fatal("oversize alloc should clamp to one page")
	}
	if frames, live := liveFrames(m); live != 1 || frames != 1 {
		t.Fatal("clamped alloc accounting wrong")
	}
}

// TestCacheObjectSizeOutOfRange: a cache whose objects would not fit a
// page, or have no size, is EINVAL.
func TestCacheObjectSizeOutOfRange(t *testing.T) {
	for _, size := range []int{-1, 0, memsim.PageSize + 1} {
		if _, err := NewSlabCache(mem(), "x", size); !errors.Is(err, fault.EINVAL) {
			t.Errorf("slab cache of %d-byte objects: %v, want EINVAL", size, err)
		}
		if _, err := NewKlocCache(mem(), "x", size); !errors.Is(err, fault.EINVAL) {
			t.Errorf("KLOC cache of %d-byte objects: %v, want EINVAL", size, err)
		}
	}
	if _, err := NewSlabCache(mem(), "x", memsim.PageSize); err != nil {
		t.Errorf("slab cache of page-sized objects: %v", err)
	}
}
