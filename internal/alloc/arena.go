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
// relocatable (not pinned) and carry ClassKloc. Each frame keeps its
// own bump offset (Frame.Bump) and live-object count (Frame.InUse),
// and returns to the memory system when its last object dies.
type Arena struct {
	Mem *memsim.Memory

	current *memsim.Frame
}

// NewArena creates an empty arena over the memory system.
func NewArena(mem *memsim.Memory) *Arena {
	return &Arena{Mem: mem}
}

// Alloc carves size bytes and returns the frame they live on, pulling
// a fresh relocatable frame (trying nodes in order) when the current
// one is exhausted.
func (a *Arena) Alloc(order []memsim.NodeID, size int, now sim.Time) (*memsim.Frame, sim.Duration, error) {
	if size <= 0 || size > memsim.PageSize {
		size = memsim.PageSize
	}
	cost := KlocAllocCost
	if a.current == nil || int(a.current.Bump)+size > memsim.PageSize {
		frame, err := a.Mem.AllocFallback(order, memsim.ClassKloc, now)
		if err != nil {
			return nil, 0, err
		}
		a.current = frame
		cost += slabNewFrameCost
	}
	f := a.current
	f.Bump += uint16(size)
	f.InUse++
	return f, cost, nil
}

// Free returns one object on frame f; the frame goes back to the
// memory system when its last object dies. A nil frame, or one with no
// live object, is a no-op.
func (a *Arena) Free(f *memsim.Frame) {
	if f == nil || f.InUse == 0 {
		return
	}
	f.InUse--
	if f.InUse == 0 {
		if a.current == f {
			a.current = nil
		}
		a.Mem.Free(f)
	}
}
