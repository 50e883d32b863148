// Package alloc implements the kernel allocation interfaces the paper
// contrasts in §3.3 and §4.4:
//
//   - the slab allocator (kmalloc / kmem_cache_alloc): fast, physically
//     contiguous, NOT relocatable — slab frames are pinned;
//   - the page allocator (page_alloc): one relocatable frame at a time,
//     straight from memsim.Memory at PageAllocCost;
//   - the KLOC allocator: the paper's new interface — nearly slab-fast,
//     but backed by anonymous-VMA-style mappings so the objects it hands
//     out CAN migrate (the paper redirected 400+ kernel allocation sites
//     to it), as a shared cache or a per-context arena.
//
// All allocators return virtual-time costs; placement (which node) is
// the caller's/policy's decision via a fallback order. Objects is the
// one kernel-object path over them that the filesystem and the network
// stack both call.
package alloc

import (
	"fmt"

	"kloc/internal/fault"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Cost constants for the allocation fast paths. Relative order is what
// matters: slab < kloc < page (§4.2.2, §4.4). Frees cost nothing
// (DESIGN.md §6).
const (
	SlabAllocCost    sim.Duration = 100
	KlocAllocCost    sim.Duration = 180
	PageAllocCost    sim.Duration = 300
	slabNewFrameCost sim.Duration = 400 // refilling a slab from the page allocator
)

// SlabCache is a kmem_cache: fixed-size objects packed into pinned
// frames. Objects from a slab cannot migrate; that is the paper's core
// criticism of using slab allocation for kernel objects that need
// tiering (§3.3). An object is known by the frame it lives on; each
// frame counts its own live objects (Frame.InUse), as struct page
// does for a slab.
type SlabCache struct {
	Mem *memsim.Memory
	// Class of frames this cache allocates (ClassSlab for the classic
	// slab; the KLOC allocator reuses this machinery with ClassKloc and
	// unpinned frames).
	Class memsim.Class
	// Pinned controls frame relocatability; true for real slabs.
	Pinned bool
	// AllocCost per object.
	AllocCost sim.Duration

	perFrame int
	partial  []*memsim.Frame // frames with free slots
}

// NewSlabCache returns a classic (pinned) slab cache for objects of the
// given size. Object sizes outside (0, PageSize] yield EINVAL.
func NewSlabCache(mem *memsim.Memory, name string, objSize int) (*SlabCache, error) {
	return newCache(mem, name, objSize, memsim.ClassSlab, true, SlabAllocCost)
}

// NewKlocCache returns the paper's KLOC allocation interface: same
// packing discipline, but frames are relocatable (anonymous-VMA-backed)
// and the per-object cost is slightly higher than slab. Object sizes
// outside (0, PageSize] yield EINVAL.
func NewKlocCache(mem *memsim.Memory, name string, objSize int) (*SlabCache, error) {
	return newCache(mem, name, objSize, memsim.ClassKloc, false, KlocAllocCost)
}

func newCache(mem *memsim.Memory, name string, objSize int, class memsim.Class, pinned bool, ac sim.Duration) (*SlabCache, error) {
	if objSize <= 0 || objSize > memsim.PageSize {
		return nil, fmt.Errorf("alloc: cache %q object size %d out of range: %w", name, objSize, fault.EINVAL)
	}
	return &SlabCache{
		Mem: mem, Class: class, Pinned: pinned,
		AllocCost: ac,
		perFrame:  memsim.PageSize / objSize,
	}, nil
}

// Alloc carves one object and returns the frame it lives on, pulling a
// fresh frame from the memory system (trying nodes in order) when no
// partial frame has space.
func (c *SlabCache) Alloc(order []memsim.NodeID, now sim.Time) (*memsim.Frame, sim.Duration, error) {
	// Prefer the most-recently added partial frame (LIFO keeps slabs
	// warm, like the real allocator's per-CPU freelists). A full frame
	// never stays on the list.
	if n := len(c.partial); n > 0 {
		f := c.partial[n-1]
		f.InUse++
		if int(f.InUse) == c.perFrame {
			c.partial = c.partial[:n-1]
		}
		return f, c.AllocCost, nil
	}
	f, err := c.Mem.AllocFallback(order, c.Class, now)
	if err != nil {
		return nil, 0, err
	}
	f.Pinned = c.Pinned
	f.InUse = 1
	if c.perFrame > 1 {
		c.partial = append(c.partial, f)
	}
	return f, c.AllocCost + slabNewFrameCost, nil
}

// Free returns one object on frame f; the frame is released when its
// last object dies. A nil frame, or one with no live object, is a
// no-op.
func (c *SlabCache) Free(f *memsim.Frame) {
	if f == nil || f.InUse == 0 {
		return
	}
	wasFull := int(f.InUse) == c.perFrame
	f.InUse--
	if f.InUse == 0 {
		c.removePartial(f)
		c.Mem.Free(f)
	} else if wasFull && c.perFrame > 1 {
		c.partial = append(c.partial, f)
	}
}

func (c *SlabCache) removePartial(f *memsim.Frame) {
	for i, p := range c.partial {
		if p == f {
			c.partial = append(c.partial[:i], c.partial[i+1:]...)
			return
		}
	}
}
