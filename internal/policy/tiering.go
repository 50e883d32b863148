package policy

import (
	"kloc/internal/kstate"
	"kloc/internal/lru"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Tiering knobs shared by the scan-based two-tier policies.
const (
	// lowWaterFrac: demote when fast free space falls below this.
	lowWaterFrac = 0.08
	// highWaterFrac: promote only while fast free space stays above this.
	highWaterFrac = 0.15
	// scanBatch pages inspected per daemon pass.
	scanBatch = 512
	// migrateBatch pages moved per daemon pass.
	migrateBatch = 256
	// migFixedPerPage covers page-table rewrite + TLB shootdown.
	migFixedPerPage sim.Duration = 3 * sim.Microsecond
	// pingPongLimit: frames migrated this many times are retained in
	// fast memory (the paper's 8-bit anti-thrash counters, §4.5).
	pingPongLimit = 8
)

// tierEngine is the app/kernel page LRU + migration machinery shared by
// Nimble, Nimble++, and the app-page half of the KLOC policies. It
// tracks frames of the configured classes in per-node LRU lists and
// rebalances between the fast and slow nodes on each tick.
type tierEngine struct {
	mem *memsim.Memory
	mig *memsim.Migrator
	// classes is indexed by Class, lists by NodeID (node IDs are dense
	// positions in mem.Nodes).
	classes [6]bool
	lists   []*lru.Lists

	// promoteWindow: pages accessed within this window of a tick are
	// promotion candidates.
	promoteWindow sim.Duration

	// Scanned/Migrated for introspection.
	DemotedPages, PromotedPages uint64
}

func newTierEngine(mem *memsim.Memory, parallelism int, classes ...memsim.Class) *tierEngine {
	e := &tierEngine{
		mem: mem,
		mig: &memsim.Migrator{
			Mem:          mem,
			FixedPerPage: migFixedPerPage,
			Parallelism:  parallelism,
		},
		lists:         make([]*lru.Lists, len(mem.Nodes)),
		promoteWindow: 20 * sim.Millisecond,
	}
	for _, c := range classes {
		e.classes[c] = true
	}
	for i := range e.lists {
		e.lists[i] = lru.New()
	}
	return e
}

func (e *tierEngine) tracks(f *memsim.Frame) bool { return e.classes[f.Class] }

// onAlloc / onAccess / onFree are the hook bodies.
func (e *tierEngine) onAlloc(ctx *kstate.Ctx, f *memsim.Frame) {
	if e.tracks(f) {
		e.lists[f.Node].Add(f, ctx.Now)
	}
}

func (e *tierEngine) onAccess(ctx *kstate.Ctx, f *memsim.Frame) {
	if e.tracks(f) {
		e.lists[f.Node].MarkAccessed(f, ctx.Now)
	}
}

func (e *tierEngine) onFree(ctx *kstate.Ctx, f *memsim.Frame) {
	e.lists[f.Node].Remove(f)
}

// moveTracked migrates a batch and keeps list membership coherent.
func (e *tierEngine) moveTracked(frames []*memsim.Frame, dst memsim.NodeID, now sim.Time) (int, sim.Duration) {
	src := make([]memsim.NodeID, len(frames))
	for i, f := range frames {
		src[i] = f.Node
	}
	// Frames whose move faulted (EBUSY) stay in their source LRU list,
	// so the next tick's scan naturally retries them.
	moved, _, cost := e.mig.Migrate(frames, dst, now)
	for i, f := range frames {
		if f.Node == dst && src[i] != dst {
			e.lists[src[i]].Remove(f)
			if e.tracks(f) {
				e.lists[dst].Add(f, now)
			}
		}
	}
	return moved, cost
}

// tick runs one pass of balance + demotion + promotion between the
// two-tier nodes, returning the virtual cost.
func (e *tierEngine) tick(now sim.Time) sim.Duration {
	fast := e.mem.Node(memsim.FastNode)
	var cost sim.Duration
	fastList := e.lists[memsim.FastNode]
	slowList := e.lists[memsim.SlowNode]

	cost += fastList.Balance(2, now)
	cost += slowList.Balance(2, now)

	// Demote cold fast pages when fast memory is tight.
	if float64(fast.Free()) < lowWaterFrac*float64(fast.Capacity) {
		cold, scanCost := fastList.ScanInactive(scanBatch, now)
		cost += scanCost
		victims := cold
		if len(victims) > migrateBatch {
			victims = victims[:migrateBatch]
		}
		// Retain ping-ponging pages in fast memory.
		kept := victims[:0]
		for _, f := range victims {
			if f.Migrations < pingPongLimit {
				kept = append(kept, f)
			}
		}
		moved, migCost := e.moveTracked(kept, memsim.SlowNode, now)
		e.DemotedPages += uint64(moved)
		cost += migCost
	}

	// Promote recently hot slow pages while fast has headroom.
	if float64(fast.Free()) > highWaterFrac*float64(fast.Capacity) {
		cutoff := now.Add(-e.promoteWindow)
		if cutoff < 0 {
			cutoff = 0
		}
		hot, scanCost := slowList.HottestActive(migrateBatch, cutoff)
		cost += scanCost
		// No ping-pong filter on promotion: the paper's 8-bit counters
		// retain pages in FAST memory; they never strand them in slow.
		moved, migCost := e.moveTracked(hot, memsim.FastNode, now)
		e.PromotedPages += uint64(moved)
		cost += migCost
	}
	return cost
}
