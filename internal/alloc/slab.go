// Package alloc implements the kernel allocation interfaces the paper
// contrasts in §3.3 and §4.4:
//
//   - the slab allocator (kmalloc / kmem_cache_alloc): fast, physically
//     contiguous, NOT relocatable — slab frames are pinned;
//   - the page allocator (page_alloc): one relocatable frame at a time;
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
// matters: slab < kloc < page (§4.2.2, §4.4).
const (
	SlabAllocCost    sim.Duration = 100
	SlabFreeCost     sim.Duration = 80
	KlocAllocCost    sim.Duration = 180
	KlocFreeCost     sim.Duration = 120
	PageAllocCost    sim.Duration = 300
	PageFreeCost     sim.Duration = 200
	slabNewFrameCost sim.Duration = 400 // refilling a slab from the page allocator
)

// Slot is one object-sized allocation inside a slab or KLOC cache
// frame.
type Slot struct {
	Frame *memsim.Frame
	cache *SlabCache
}

// slabFrame tracks per-frame occupancy inside a cache.
type slabFrame struct {
	frame *memsim.Frame
	used  int
}

// SlabCache is a kmem_cache: fixed-size objects packed into pinned
// frames. Objects from a slab cannot migrate; that is the paper's core
// criticism of using slab allocation for kernel objects that need
// tiering (§3.3).
type SlabCache struct {
	Mem     *memsim.Memory
	Name    string
	ObjSize int
	// Class of frames this cache allocates (ClassSlab for the classic
	// slab; the KLOC allocator reuses this machinery with ClassKloc and
	// unpinned frames).
	Class memsim.Class
	// Pinned controls frame relocatability; true for real slabs.
	Pinned bool
	// AllocCost/FreeCost per object.
	AllocCost, FreeCost sim.Duration

	perFrame int
	partial  []*slabFrame // frames with free slots
	byFrame  map[memsim.FrameID]*slabFrame
}

// NewSlabCache returns a classic (pinned) slab cache for objects of the
// given size. Object sizes outside (0, PageSize] yield EINVAL.
func NewSlabCache(mem *memsim.Memory, name string, objSize int) (*SlabCache, error) {
	return newCache(mem, name, objSize, memsim.ClassSlab, true, SlabAllocCost, SlabFreeCost)
}

// NewKlocCache returns the paper's KLOC allocation interface: same
// packing discipline, but frames are relocatable (anonymous-VMA-backed)
// and the per-object cost is slightly higher than slab. Object sizes
// outside (0, PageSize] yield EINVAL.
func NewKlocCache(mem *memsim.Memory, name string, objSize int) (*SlabCache, error) {
	return newCache(mem, name, objSize, memsim.ClassKloc, false, KlocAllocCost, KlocFreeCost)
}

func newCache(mem *memsim.Memory, name string, objSize int, class memsim.Class, pinned bool, ac, fc sim.Duration) (*SlabCache, error) {
	if objSize <= 0 || objSize > memsim.PageSize {
		return nil, fmt.Errorf("alloc: cache %q object size %d out of range: %w", name, objSize, fault.EINVAL)
	}
	per := memsim.PageSize / objSize
	if per < 1 {
		per = 1
	}
	return &SlabCache{
		Mem: mem, Name: name, ObjSize: objSize, Class: class, Pinned: pinned,
		AllocCost: ac, FreeCost: fc,
		perFrame: per,
		byFrame:  make(map[memsim.FrameID]*slabFrame),
	}, nil
}

// ObjectsPerFrame reports the packing density.
func (c *SlabCache) ObjectsPerFrame() int { return c.perFrame }

// Alloc carves one object slot, pulling a fresh frame from the memory
// system (trying nodes in order) when no partial frame has space.
func (c *SlabCache) Alloc(order []memsim.NodeID, now sim.Time) (*Slot, sim.Duration, error) {
	cost := c.AllocCost
	// Prefer the most-recently added partial frame (LIFO keeps slabs
	// warm, like the real allocator's per-CPU freelists).
	for len(c.partial) > 0 {
		sf := c.partial[len(c.partial)-1]
		if sf.used < c.perFrame {
			sf.used++
			if sf.used == c.perFrame {
				c.partial = c.partial[:len(c.partial)-1]
			}
			return &Slot{Frame: sf.frame, cache: c}, cost, nil
		}
		c.partial = c.partial[:len(c.partial)-1]
	}
	frame, err := c.Mem.AllocFallback(order, c.Class, now)
	if err != nil {
		return nil, 0, err
	}
	frame.Pinned = c.Pinned
	sf := &slabFrame{frame: frame, used: 1}
	c.byFrame[frame.ID] = sf
	if c.perFrame > 1 {
		c.partial = append(c.partial, sf)
	}
	return &Slot{Frame: frame, cache: c}, cost + slabNewFrameCost, nil
}

// Free returns a slot; the backing frame is released when its last
// object dies. Returns the virtual cost.
func (c *SlabCache) Free(s *Slot) sim.Duration {
	if s == nil || s.cache != c {
		return 0
	}
	sf := c.byFrame[s.Frame.ID]
	if sf == nil {
		return 0
	}
	wasFull := sf.used == c.perFrame
	sf.used--
	if sf.used == 0 {
		delete(c.byFrame, s.Frame.ID)
		c.removePartial(sf)
		c.Mem.Free(sf.frame)
	} else if wasFull && c.perFrame > 1 {
		c.partial = append(c.partial, sf)
	}
	s.cache = nil
	return c.FreeCost
}

func (c *SlabCache) removePartial(sf *slabFrame) {
	for i, p := range c.partial {
		if p == sf {
			c.partial = append(c.partial[:i], c.partial[i+1:]...)
			return
		}
	}
}

// Frames reports how many frames the cache currently holds.
func (c *SlabCache) Frames() int { return len(c.byFrame) }

// LiveObjects reports the number of live slots.
func (c *SlabCache) LiveObjects() int {
	n := 0
	for _, sf := range c.byFrame {
		n += sf.used
	}
	return n
}
