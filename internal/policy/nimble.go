package policy

import (
	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// nimbleScanPeriod is the hotness-scan cadence. The point of §3.3 is
// that this cadence — fine for application pages with minutes-long
// lifetimes — is far longer than kernel-object lifetimes (36 ms slab /
// 160 ms page cache), so scan-based policies are structurally late for
// kernel objects.
const nimbleScanPeriod = 10 * sim.Millisecond

// Nimble is the prior-art baseline: application pages tier between fast
// and slow memory with parallelized page copies; kernel objects are
// allocated entirely in slow memory and never migrate (§3.2's
// description of two-tier prior work).
type Nimble struct {
	Base
	engine *tierEngine
	// kernelClasses configures which frame classes the scan engine
	// tiers: Nimble tiers only app pages; Nimble++ adds kernel pages.
	kernelPages bool
	// kernelAlloc is the fixed fallback order for kernel objects.
	kernelAlloc []memsim.NodeID
}

// NewNimble returns the Nimble baseline.
func NewNimble() *Nimble {
	return &Nimble{
		Base:        Base{name: "nimble", period: nimbleScanPeriod},
		kernelAlloc: slowOnly,
	}
}

// NewNimblePP returns Nimble++: Nimble's machinery extended to identify
// and migrate kernel pages, still without the KLOC abstraction. Kernel
// pages start in slow memory and rely on scans to be promoted — which
// usually happens after the object is already dead.
func NewNimblePP() *Nimble {
	return &Nimble{
		Base:        Base{name: "nimble++", period: nimbleScanPeriod},
		kernelPages: true,
		kernelAlloc: slowFirst,
	}
}

// Attach builds the scan engine.
func (n *Nimble) Attach(k *kernel.Kernel) {
	n.Base.Attach(k)
	classes := []memsim.Class{memsim.ClassApp}
	if n.kernelPages {
		classes = append(classes, memsim.ClassCache, memsim.ClassKloc)
	}
	n.engine = newTierEngine(k.Mem, 4, classes...)
}

// PlaceApp: fast first.
func (n *Nimble) PlaceApp(*kstate.Ctx) []memsim.NodeID { return fastFirst }

// PlaceKernel: slow memory (prior art ignores kernel-object tiering at
// allocation time).
func (n *Nimble) PlaceKernel(*kstate.Ctx, kobj.Type, uint64) []memsim.NodeID {
	return n.kernelAlloc
}

// PageAllocated tracks the frame in the scan engine.
func (n *Nimble) PageAllocated(ctx *kstate.Ctx, f *memsim.Frame) { n.engine.onAlloc(ctx, f) }

// PageAccessed refreshes LRU state.
func (n *Nimble) PageAccessed(ctx *kstate.Ctx, f *memsim.Frame) { n.engine.onAccess(ctx, f) }

// PageFreed forgets the frame.
func (n *Nimble) PageFreed(ctx *kstate.Ctx, f *memsim.Frame) { n.engine.onFree(ctx, f) }

// Tick runs the scan/migrate pass.
func (n *Nimble) Tick(now sim.Time) sim.Duration { return n.engine.tick(now) }

var _ kernel.Policy = (*Nimble)(nil)
