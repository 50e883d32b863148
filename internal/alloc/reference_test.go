package alloc

import (
	"errors"
	"fmt"
	"testing"

	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// refCache is the slot-and-map slab cache that frame-resident counts
// replaced, kept as the differential reference: a heap slot per object
// and a heap record per frame, found through a FrameID-keyed map.
type refCache struct {
	mem       *memsim.Memory
	class     memsim.Class
	pinned    bool
	allocCost sim.Duration

	perFrame int
	partial  []*refSlabFrame // frames with free slots
	byFrame  map[memsim.FrameID]*refSlabFrame
}

type refSlabFrame struct {
	frame *memsim.Frame
	used  int
}

type refSlot struct {
	Frame *memsim.Frame
	cache *refCache
}

func newRefCache(mem *memsim.Memory, objSize int, class memsim.Class, pinned bool, ac sim.Duration) *refCache {
	return &refCache{
		mem: mem, class: class, pinned: pinned, allocCost: ac,
		perFrame: memsim.PageSize / objSize,
		byFrame:  make(map[memsim.FrameID]*refSlabFrame),
	}
}

func (c *refCache) Alloc(order []memsim.NodeID, now sim.Time) (*refSlot, sim.Duration, error) {
	for len(c.partial) > 0 {
		sf := c.partial[len(c.partial)-1]
		if sf.used < c.perFrame {
			sf.used++
			if sf.used == c.perFrame {
				c.partial = c.partial[:len(c.partial)-1]
			}
			return &refSlot{Frame: sf.frame, cache: c}, c.allocCost, nil
		}
		c.partial = c.partial[:len(c.partial)-1]
	}
	frame, err := c.mem.AllocFallback(order, c.class, now)
	if err != nil {
		return nil, 0, err
	}
	frame.Pinned = c.pinned
	sf := &refSlabFrame{frame: frame, used: 1}
	c.byFrame[frame.ID] = sf
	if c.perFrame > 1 {
		c.partial = append(c.partial, sf)
	}
	return &refSlot{Frame: frame, cache: c}, c.allocCost + slabNewFrameCost, nil
}

func (c *refCache) Free(s *refSlot) {
	if s == nil || s.cache != c {
		return
	}
	sf := c.byFrame[s.Frame.ID]
	if sf == nil {
		return
	}
	wasFull := sf.used == c.perFrame
	sf.used--
	if sf.used == 0 {
		delete(c.byFrame, s.Frame.ID)
		for i, p := range c.partial {
			if p == sf {
				c.partial = append(c.partial[:i], c.partial[i+1:]...)
				break
			}
		}
		c.mem.Free(sf.frame)
	} else if wasFull && c.perFrame > 1 {
		c.partial = append(c.partial, sf)
	}
	s.cache = nil
}

func (c *refCache) Frames() int { return len(c.byFrame) }

func (c *refCache) LiveObjects() int {
	n := 0
	for _, sf := range c.byFrame {
		n += sf.used
	}
	return n
}

// refArena is the map-backed arena that frame-resident counts
// replaced: a heap record per frame and a heap slot per object.
type refArena struct {
	mem     *memsim.Memory
	frames  map[memsim.FrameID]*refArenaFrame
	current *refArenaFrame
}

type refArenaFrame struct {
	frame *memsim.Frame
	used  int // bytes bumped
	live  int // live objects
}

type refArenaSlot struct {
	Frame *memsim.Frame
	arena *refArena
	fid   memsim.FrameID
	freed bool
}

func newRefArena(mem *memsim.Memory) *refArena {
	return &refArena{mem: mem, frames: make(map[memsim.FrameID]*refArenaFrame)}
}

func (a *refArena) Alloc(order []memsim.NodeID, size int, now sim.Time) (*refArenaSlot, sim.Duration, error) {
	if size <= 0 || size > memsim.PageSize {
		size = memsim.PageSize
	}
	cost := KlocAllocCost
	if a.current == nil || a.current.used+size > memsim.PageSize {
		frame, err := a.mem.AllocFallback(order, memsim.ClassKloc, now)
		if err != nil {
			return nil, 0, err
		}
		af := &refArenaFrame{frame: frame}
		a.frames[frame.ID] = af
		a.current = af
		cost += slabNewFrameCost
	}
	af := a.current
	af.used += size
	af.live++
	return &refArenaSlot{Frame: af.frame, arena: a, fid: af.frame.ID}, cost, nil
}

func (a *refArena) Free(s *refArenaSlot) {
	if s == nil || s.freed || s.arena != a {
		return
	}
	s.freed = true
	af, ok := a.frames[s.fid]
	if !ok {
		return
	}
	af.live--
	if af.live == 0 {
		delete(a.frames, s.fid)
		if a.current == af {
			a.current = nil
		}
		a.mem.Free(af.frame)
	}
}

func (a *refArena) Frames() int { return len(a.frames) }

func (a *refArena) LiveObjects() int {
	n := 0
	for _, af := range a.frames {
		n += af.live
	}
	return n
}

// side is one allocator the differential test drives: the
// frame-counted one or its reference, each over its own memory. alloc
// returns the handle free takes back and the frame the object got.
type side struct {
	mem    *memsim.Memory
	alloc  func(size int, now sim.Time) (handle any, f *memsim.Frame, cost sim.Duration, err error)
	free   func(handle any)
	frames func() int
	live   func() int
}

// memFrames counts the live frames of the side's memory.
func (s side) memFrames() int {
	f, _ := liveFrames(s.mem)
	return f
}

// smallMem is small enough that the alloc-heavy phases exhaust it.
func smallMem() *memsim.Memory {
	return memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 8, SlowPages: 24,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 2,
	})
}

// cacheSides builds a slab cache (or a KLOC cache) and its reference.
func cacheSides(t *testing.T, objSize int, kloc bool) (got, want side) {
	newCache, class, pinned, ac := NewSlabCache, memsim.ClassSlab, true, SlabAllocCost
	if kloc {
		newCache, class, pinned, ac = NewKlocCache, memsim.ClassKloc, false, KlocAllocCost
	}
	c, err := newCache(smallMem(), "x", objSize)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefCache(smallMem(), objSize, class, pinned, ac)
	got = side{mem: c.Mem,
		alloc: func(_ int, now sim.Time) (any, *memsim.Frame, sim.Duration, error) {
			f, cost, err := c.Alloc(order, now)
			return f, f, cost, err
		},
		free:   func(h any) { c.Free(h.(*memsim.Frame)) },
		frames: func() int { f, _ := liveFrames(c.Mem); return f },
		live:   func() int { _, o := liveFrames(c.Mem); return o },
	}
	want = side{mem: r.mem,
		alloc: func(_ int, now sim.Time) (any, *memsim.Frame, sim.Duration, error) {
			s, cost, err := r.Alloc(order, now)
			if err != nil {
				return nil, nil, 0, err
			}
			return s, s.Frame, cost, nil
		},
		free:   func(h any) { r.Free(h.(*refSlot)) },
		frames: r.Frames, live: r.LiveObjects,
	}
	return got, want
}

// arenaSides builds an arena and its reference.
func arenaSides(*testing.T) (got, want side) {
	a, r := NewArena(smallMem()), newRefArena(smallMem())
	got = side{mem: a.Mem,
		alloc: func(size int, now sim.Time) (any, *memsim.Frame, sim.Duration, error) {
			f, cost, err := a.Alloc(order, size, now)
			return f, f, cost, err
		},
		free:   func(h any) { a.Free(h.(*memsim.Frame)) },
		frames: func() int { f, _ := liveFrames(a.Mem); return f },
		live:   func() int { _, o := liveFrames(a.Mem); return o },
	}
	want = side{mem: r.mem,
		alloc: func(size int, now sim.Time) (any, *memsim.Frame, sim.Duration, error) {
			s, cost, err := r.Alloc(order, size, now)
			if err != nil {
				return nil, nil, 0, err
			}
			return s, s.Frame, cost, nil
		},
		free:   func(h any) { r.Free(h.(*refArenaSlot)) },
		frames: r.Frames, live: r.LiveObjects,
	}
	return got, want
}

// TestCachesMatchReference drives seeded random alloc/free sequences
// through slab caches, a KLOC cache and an arena, and through their
// slot-and-map references, and requires the two to agree after every
// step: the frame each object lands on (ID, node, pinning), the alloc
// cost and error, the frames and live objects in the allocator's memory
// against the reference's own counts, and the two memories' live-frame
// counts. Alloc-heavy and free-heavy phases alternate, so frames fill,
// drain, return to the partial list and run out.
func TestCachesMatchReference(t *testing.T) {
	arenaSizes := []int{0, 96, 192, 232, 600, 1024, 2048, memsim.PageSize, 2 * memsim.PageSize}
	for _, c := range []struct {
		name  string
		sides func(*testing.T) (side, side)
	}{
		{"slab-96", func(t *testing.T) (side, side) { return cacheSides(t, 96, false) }},
		{"slab-1024", func(t *testing.T) (side, side) { return cacheSides(t, 1024, false) }},
		{"slab-2048", func(t *testing.T) (side, side) { return cacheSides(t, 2048, false) }},
		{"slab-page", func(t *testing.T) (side, side) { return cacheSides(t, memsim.PageSize, false) }},
		{"kloc-cache-232", func(t *testing.T) (side, side) { return cacheSides(t, 232, true) }},
		{"arena", arenaSides},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3, 7, 42} {
				got, want := c.sides(t)
				rng := sim.NewRNG(seed)
				type live struct{ got, want any }
				var held []live
				for step := 0; step < 3000; step++ {
					at := fmt.Sprintf("seed %d step %d", seed, step)
					allocPct := 70
					if step/250%2 == 1 {
						allocPct = 30
					}
					if len(held) == 0 || rng.Intn(100) < allocPct {
						size := arenaSizes[rng.Intn(len(arenaSizes))]
						now := sim.Time(step)
						gh, gf, gcost, gerr := got.alloc(size, now)
						wh, wf, wcost, werr := want.alloc(size, now)
						if !errors.Is(gerr, werr) {
							t.Fatalf("%s: alloc error %v, reference %v", at, gerr, werr)
						}
						if gerr == nil {
							if gf.ID != wf.ID || gf.Node != wf.Node || gf.Pinned != wf.Pinned || gcost != wcost {
								t.Fatalf("%s: alloc on frame %d node %d pinned %v cost %v, reference frame %d node %d pinned %v cost %v",
									at, gf.ID, gf.Node, gf.Pinned, gcost, wf.ID, wf.Node, wf.Pinned, wcost)
							}
							held = append(held, live{gh, wh})
						}
					} else {
						i := rng.Intn(len(held))
						got.free(held[i].got)
						want.free(held[i].want)
						held[i] = held[len(held)-1]
						held = held[:len(held)-1]
					}
					if g, w := got.frames(), want.frames(); g != w {
						t.Fatalf("%s: Frames() = %d, reference %d", at, g, w)
					}
					if g, w := got.live(), want.live(); g != w || g != len(held) {
						t.Fatalf("%s: LiveObjects() = %d, reference %d, held %d", at, g, w, len(held))
					}
					if g, w := got.frames(), want.memFrames(); g != w {
						t.Fatalf("%s: live frames %d, reference %d", at, g, w)
					}
				}
			}
		})
	}
}
