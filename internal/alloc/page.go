package alloc

import (
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// PageAllocator wraps the memory system's frame allocation with the
// page_alloc cost model. Pages from here are relocatable.
type PageAllocator struct {
	Mem *memsim.Memory
}

// Alloc returns one relocatable frame of the given class.
func (p *PageAllocator) Alloc(order []memsim.NodeID, class memsim.Class, now sim.Time) (*memsim.Frame, sim.Duration, error) {
	f, err := p.Mem.AllocFallback(order, class, now)
	if err != nil {
		return nil, 0, err
	}
	return f, PageAllocCost, nil
}

// Free releases a frame.
func (p *PageAllocator) Free(f *memsim.Frame) sim.Duration {
	p.Mem.Free(f)
	return PageFreeCost
}
