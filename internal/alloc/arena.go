package alloc

import (
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Arena is a per-KLOC allocation region: the simulation's rendering of
// the paper's new allocation interface, which backs kernel objects with
// anonymous-VMA-style regions so they can migrate (§4.4). Unlike a
// shared slab cache, an arena belongs to ONE file or socket, so its
// frames never mix objects from different KLOCs and can be demoted or
// promoted with the owning knode without collateral damage.
//
// Allocation is a bump pointer within the current frame; frames are
// relocatable (not pinned) and carry ClassKloc. A frame is returned to
// the memory system when its last object dies.
type Arena struct {
	Mem *memsim.Memory

	frames  map[memsim.FrameID]*arenaFrame
	current *arenaFrame
}

type arenaFrame struct {
	frame *memsim.Frame
	used  int // bytes bumped
	live  int // live objects
}

// ArenaSlot is one object allocation inside an arena.
type ArenaSlot struct {
	Frame *memsim.Frame
	arena *Arena
	fid   memsim.FrameID
	freed bool
}

// NewArena creates an empty arena over the memory system.
func NewArena(mem *memsim.Memory) *Arena {
	return &Arena{Mem: mem, frames: make(map[memsim.FrameID]*arenaFrame)}
}

// Alloc carves size bytes, pulling a fresh relocatable frame (trying
// nodes in order) when the current one is exhausted.
func (a *Arena) Alloc(order []memsim.NodeID, size int, now sim.Time) (*ArenaSlot, sim.Duration, error) {
	if size <= 0 || size > memsim.PageSize {
		size = memsim.PageSize
	}
	cost := KlocAllocCost
	if a.current == nil || a.current.used+size > memsim.PageSize {
		frame, err := a.Mem.AllocFallback(order, memsim.ClassKloc, now)
		if err != nil {
			return nil, 0, err
		}
		af := &arenaFrame{frame: frame}
		a.frames[frame.ID] = af
		a.current = af
		cost += slabNewFrameCost
	}
	af := a.current
	af.used += size
	af.live++
	return &ArenaSlot{Frame: af.frame, arena: a, fid: af.frame.ID}, cost, nil
}

// Free releases a slot; the frame returns to the memory system when its
// last object dies. Idempotent.
func (a *Arena) Free(s *ArenaSlot) sim.Duration {
	if s == nil || s.freed || s.arena != a {
		return 0
	}
	s.freed = true
	af, ok := a.frames[s.fid]
	if !ok {
		return 0
	}
	af.live--
	if af.live == 0 {
		delete(a.frames, s.fid)
		if a.current == af {
			a.current = nil
		}
		a.Mem.Free(af.frame)
	}
	return KlocFreeCost
}

// Frames reports live arena frames.
func (a *Arena) Frames() int { return len(a.frames) }

// LiveObjects reports live allocations.
func (a *Arena) LiveObjects() int {
	n := 0
	for _, af := range a.frames {
		n += af.live
	}
	return n
}
