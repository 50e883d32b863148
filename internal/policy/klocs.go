package policy

import (
	"kloc/internal/kernel"
	"kloc/internal/kloc"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// KLOC daemon tuning.
const (
	// klocTickPeriod: the KLOC daemon runs an order of magnitude more
	// often than scan-based policies because it does no scanning — it
	// reacts to the demotion/promotion queues the syscall hooks feed.
	klocTickPeriod = 1 * sim.Millisecond
	// klocAgeEvery runs knode aging + the app-page scan every N ticks
	// (bringing those back to the ~100 ms cadence).
	klocAgeEvery = 10
	// klocAgeThreshold: active knodes aged past this are demoted.
	klocAgeThreshold = 3
	// klocDemoteFreeFrac: demote only while fast free space is below
	// this fraction (demotion relieves real pressure, §4.4).
	klocDemoteFreeFrac = 0.15
	// klocKnodesPerTick bounds queue processing per tick.
	klocKnodesPerTick = 64
)

// KLOCConfig selects the KLOC policy variant; the zero value is not
// useful — start from DefaultKLOCConfig.
type KLOCConfig struct {
	// Migration enables kernel-object migration; false gives the
	// paper's KLOCs-nomigration bar.
	Migration bool
	// IncludedGroups limits which Table-1 object groups are tracked by
	// KLOCs (Fig 5c); nil includes everything. Excluded objects are
	// always placed in fast memory, per the paper's methodology.
	IncludedGroups []kobj.Group
	// DriverExtract enables socket extraction in the driver (§4.2.3);
	// disabling it is the late-association ablation.
	DriverExtract bool
	// FastPath enables the per-CPU knode lists (§4.3 ablation).
	FastPath bool
	// SplitTrees enables the rbtree-cache/rbtree-slab split (§4.2.3
	// ablation).
	SplitTrees bool
	// RelocatableSlabs routes slab-class objects through the KLOC
	// allocation interface so they can migrate (§4.4 ablation).
	RelocatableSlabs bool
	// FastMemLimitPages caps the fast-tier pages KLOC-managed kernel
	// objects may occupy (Table 2's sys_kloc_memsize; 0 = unlimited).
	FastMemLimitPages int
}

// DefaultKLOCConfig is the full paper design.
func DefaultKLOCConfig() KLOCConfig {
	return KLOCConfig{
		Migration:        true,
		DriverExtract:    true,
		FastPath:         true,
		SplitTrees:       true,
		RelocatableSlabs: true,
	}
}

// KLOCs is the paper's policy: kernel objects of active knodes allocate
// directly to fast memory; when a knode turns cold (close or aging) its
// objects are identified through the knode — no page-table scan — and
// migrated en masse; reactivated knodes promote back. Application pages
// use the Nimble machinery (§4.5).
type KLOCs struct {
	Base
	cfg KLOCConfig
	Reg *kloc.Registry

	engine *tierEngine // app pages only
	mig    *memsim.Migrator

	included map[kobj.Group]bool // nil = all

	demoteQueue  []*kloc.Knode
	promoteQueue []*kloc.Knode
	queued       map[kloc.KnodeID]bool
	ticks        int
	// scratch holds one knode's victims or movers: Migrate does not
	// keep the batch, so the next knode reuses it.
	scratch []*memsim.Frame
}

// NewKLOCs builds the policy.
func NewKLOCs(cfg KLOCConfig) *KLOCs {
	name := "klocs"
	if !cfg.Migration {
		name = "klocs-nomigration"
	}
	p := &KLOCs{
		Base:   Base{name: name, period: klocTickPeriod},
		cfg:    cfg,
		queued: make(map[kloc.KnodeID]bool),
	}
	if cfg.IncludedGroups != nil {
		p.included = make(map[kobj.Group]bool)
		for _, g := range cfg.IncludedGroups {
			p.included[g] = true
		}
	}
	return p
}

// Attach creates the registry and the app-page engine.
func (p *KLOCs) Attach(k *kernel.Kernel) {
	p.Base.Attach(k)
	p.Reg = kloc.NewRegistry(k.Mem, k.Mem.NumCPUs())
	p.Reg.FastPathEnabled = p.cfg.FastPath
	p.Reg.SplitTrees = p.cfg.SplitTrees
	p.engine = newTierEngine(k.Mem, 4, memsim.ClassApp)
	p.mig = &memsim.Migrator{Mem: k.Mem, FixedPerPage: migFixedPerPage, Parallelism: 4}
}

// OOMVictimFrames nominates the OOM victim for the kernel's
// last-resort degradation path: the knode with the largest
// footprint-on-node × staleness score, preferring inactive (closed)
// contexts; an active knode is only sacrificed when no inactive one
// holds frames on the pressured node. Knode iteration is kmap order,
// and ties keep the first (lowest-ID) candidate, so the choice is
// deterministic.
func (p *KLOCs) OOMVictimFrames(node memsim.NodeID, now sim.Time) []*memsim.Frame {
	if p.Reg == nil {
		return nil
	}
	pick := func(includeActive bool) []*memsim.Frame {
		var bestFrames []*memsim.Frame
		var best uint64
		for _, kn := range p.Reg.ColdKnodes(0) { // threshold 0: every knode
			if kn.Active && !includeActive {
				continue
			}
			onNode := p.collect(kn, func(f *memsim.Frame) bool { return f.Node == node })
			if len(onNode) == 0 {
				continue
			}
			score := uint64(len(onNode)) * uint64(kn.Age+1)
			if score > best {
				best, bestFrames = score, append(bestFrames[:0], onNode...)
			}
		}
		return bestFrames
	}
	if frames := pick(false); len(frames) > 0 {
		return frames
	}
	return pick(true)
}

var _ kernel.OOMVictimChooser = (*KLOCs)(nil)

func (p *KLOCs) includes(t kobj.Type) bool {
	if p.included == nil {
		return true
	}
	return p.included[kobj.GroupOf(t)]
}

// --- placement ---

// PlaceApp: fast first (KLOCs prioritize application pages, §4.2.2).
func (p *KLOCs) PlaceApp(*kstate.Ctx) []memsim.NodeID { return fastFirst }

// PlaceKernel: objects of active knodes allocate directly to fast
// memory; objects of inactive knodes go to slow; untracked types go
// fast (Fig 5c methodology). A configured sys_kloc_memsize limit caps
// how much fast memory KLOC-managed objects may take.
func (p *KLOCs) PlaceKernel(ctx *kstate.Ctx, t kobj.Type, ino uint64) []memsim.NodeID {
	if !p.includes(t) || ino == 0 {
		return fastFirst
	}
	ctx.Charge(50) // inode flag check (§5: "a fast operation")
	if p.cfg.FastMemLimitPages > 0 &&
		p.K.Mem.KernelUsed(memsim.FastNode) >= p.cfg.FastMemLimitPages {
		return slowFirst
	}
	if kn, ok := p.Reg.Get(ino); ok && !kn.Active {
		return slowFirst
	}
	return fastFirst
}

// SetFastMemLimit adjusts the sys_kloc_memsize cap at runtime (Table 2:
// an administrator operation).
func (p *KLOCs) SetFastMemLimit(pages int) { p.cfg.FastMemLimitPages = pages }

// UseKlocAllocator: tracked slab objects come from the relocatable
// interface.
func (p *KLOCs) UseKlocAllocator(t kobj.Type) bool {
	return p.cfg.RelocatableSlabs && p.includes(t)
}

// DriverSockExtract per config.
func (p *KLOCs) DriverSockExtract() bool { return p.cfg.DriverExtract }

// --- lifecycle hooks ---

// InodeCreated maps a knode (knodes always allocate to fast memory,
// §4.2.2).
func (p *KLOCs) InodeCreated(ctx *kstate.Ctx, ino uint64, _ bool) {
	_, cost, err := p.Reg.MapKnode(ino, fastFirst, ctx.Now)
	ctx.Charge(cost)
	_ = err // allocation failure degrades to untracked inode
}

// InodeOpened reactivates the knode and queues promotion of any of its
// objects that were demoted.
func (p *KLOCs) InodeOpened(ctx *kstate.Ctx, ino uint64) {
	kn, ok := p.Reg.Activate(ctx.CPU, ino)
	if !ok || !p.cfg.Migration {
		return
	}
	if hasMovableFrame(p.Reg, kn, onSlowNode) {
		p.enqueue(&p.promoteQueue, kn)
	}
}

// onSlowNode matches a frame in slow memory.
func onSlowNode(f *memsim.Frame) bool { return f.Node == memsim.SlowNode }

// promotable matches a frame that promotion moves back to fast memory:
// a page-cache or KLOC-arena frame stranded on the slow node.
func promotable(f *memsim.Frame) bool {
	return (f.Class == memsim.ClassCache || f.Class == memsim.ClassKloc) &&
		f.Node == memsim.SlowNode
}

// demotable matches a frame that demotion moves to slow memory: a
// page-cache or KLOC-arena frame on the fast node that has not yet
// ping-ponged to the retention limit.
func demotable(f *memsim.Frame) bool {
	return (f.Class == memsim.ClassCache || f.Class == memsim.ClassKloc) &&
		f.Node == memsim.FastNode && f.Migrations < pingPongLimit
}

// hasMovableFrame reports whether some movable frame of kn matches
// pred, stopping at the first match.
func hasMovableFrame(reg *kloc.Registry, kn *kloc.Knode, pred func(*memsim.Frame) bool) bool {
	return reg.EachMovableFrame(kn, func(f *memsim.Frame) bool { return !pred(f) })
}

// collect gathers kn's movable frames that match pred into the policy's
// scratch slice, which the next collect overwrites.
func (p *KLOCs) collect(kn *kloc.Knode, pred func(*memsim.Frame) bool) []*memsim.Frame {
	out := p.scratch[:0]
	p.Reg.EachMovableFrame(kn, func(f *memsim.Frame) bool {
		if pred(f) {
			out = append(out, f)
		}
		return true
	})
	p.scratch = out
	return out
}

// InodeClosed deactivates the knode; its objects are immediately
// queued for demotion — the short-circuit that scan-based policies
// lack.
func (p *KLOCs) InodeClosed(ctx *kstate.Ctx, ino uint64) {
	kn, ok := p.Reg.Deactivate(ino)
	if !ok || !p.cfg.Migration {
		return
	}
	p.enqueue(&p.demoteQueue, kn)
}

// InodeDeleted drops the knode (objects are deallocated by their
// subsystems; §3.2 rule two — no migration of dying objects).
func (p *KLOCs) InodeDeleted(ctx *kstate.Ctx, ino uint64) {
	ctx.Charge(p.Reg.Delete(ino))
}

// ObjectCreated indexes the object under its knode.
func (p *KLOCs) ObjectCreated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	if ino == 0 || !p.includes(o.Type) {
		return
	}
	ctx.Charge(p.Reg.AddObject(ctx.CPU, ino, o))
	if o.Frame != nil && o.Knode != 0 {
		o.Frame.Knode = o.Knode
	}
}

// ObjectAssociated handles late demux association.
func (p *KLOCs) ObjectAssociated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	p.ObjectCreated(ctx, ino, o)
}

// ObjectFreed unindexes the object.
func (p *KLOCs) ObjectFreed(ctx *kstate.Ctx, o *kobj.Object) {
	ctx.Charge(p.Reg.RemoveObject(o))
}

// --- page hooks (app-page machinery + knode recency) ---

// PageAllocated tracks app frames.
func (p *KLOCs) PageAllocated(ctx *kstate.Ctx, f *memsim.Frame) { p.engine.onAlloc(ctx, f) }

// PageAccessed refreshes app LRU state and knode recency.
func (p *KLOCs) PageAccessed(ctx *kstate.Ctx, f *memsim.Frame) {
	p.engine.onAccess(ctx, f)
	if f.Knode != 0 {
		p.Reg.TouchID(kloc.KnodeID(f.Knode), ctx.CPU)
	}
}

// PageFreed forgets the frame.
func (p *KLOCs) PageFreed(ctx *kstate.Ctx, f *memsim.Frame) { p.engine.onFree(ctx, f) }

// --- daemon ---

func (p *KLOCs) enqueue(q *[]*kloc.Knode, kn *kloc.Knode) {
	if p.queued[kn.ID] {
		return
	}
	p.queued[kn.ID] = true
	*q = append(*q, kn)
}

// dequeue drops a processed batch, the first n knodes of q, and moves
// the rest, requeued knodes last, to the front of q's array, which the
// next enqueue reuses.
func dequeue(q []*kloc.Knode, n int) []*kloc.Knode {
	rest := copy(q, q[n:])
	clear(q[rest:])
	return q[:rest]
}

// Tick processes the demotion/promotion queues every period and runs
// aging plus the app-page scan at the slower cadence.
func (p *KLOCs) Tick(now sim.Time) sim.Duration {
	var cost sim.Duration
	p.ticks++
	if p.cfg.Migration {
		cost += p.processDemotions(now)
		cost += p.processPromotions(now)
	}
	if p.ticks%klocAgeEvery == 0 {
		cost += p.Reg.AgeScan()
		if p.cfg.Migration {
			for _, kn := range p.Reg.ColdKnodes(klocAgeThreshold) {
				p.enqueue(&p.demoteQueue, kn)
			}
			// Opportunistic reverse migration: recently-touched active
			// KLOCs with objects stranded in slow memory promote (§4.4:
			// 4-12% of migrations are slow-to-fast, mainly cache pages).
			for _, kn := range p.Reg.ActiveKnodes() {
				if kn.Age <= 1 && hasMovableFrame(p.Reg, kn, promotable) {
					p.enqueue(&p.promoteQueue, kn)
				}
			}
		}
		cost += p.engine.tick(now)
		p.Reg.SetMigrationListLen(len(p.demoteQueue) + len(p.promoteQueue))
	}
	return cost
}

func (p *KLOCs) processDemotions(now sim.Time) sim.Duration {
	fast := p.K.Mem.Node(memsim.FastNode)
	var cost sim.Duration
	n := min(len(p.demoteQueue), klocKnodesPerTick)
	for _, kn := range p.demoteQueue[:n] {
		delete(p.queued, kn.ID)
		// A knode reactivated while queued is skipped.
		if kn.Active && kn.Age < klocAgeThreshold {
			continue
		}
		// Demotion only relieves real pressure.
		if float64(fast.Free()) > klocDemoteFreeFrac*float64(fast.Capacity) {
			continue
		}
		// Page-cache frames are per-file; slab-class objects live in
		// per-KLOC arena frames (ClassKloc) — both migrate with the
		// knode. Shared (pinned) slab frames never move.
		victims := p.collect(kn, demotable)
		if len(victims) == 0 {
			continue
		}
		_, faulted, c := p.mig.Migrate(victims, memsim.SlowNode, now)
		cost += c
		if faulted > 0 {
			// EBUSY pages stayed on the fast node: requeue the knode so
			// the next tick retries them.
			p.enqueue(&p.demoteQueue, kn)
		}
	}
	p.demoteQueue = dequeue(p.demoteQueue, n)
	return cost
}

func (p *KLOCs) processPromotions(now sim.Time) sim.Duration {
	fast := p.K.Mem.Node(memsim.FastNode)
	var cost sim.Duration
	n := min(len(p.promoteQueue), klocKnodesPerTick)
	for _, kn := range p.promoteQueue[:n] {
		delete(p.queued, kn.ID)
		if !kn.Active {
			continue
		}
		if float64(fast.Free()) < highWaterFrac*float64(fast.Capacity) {
			continue
		}
		movers := p.collect(kn, promotable)
		if len(movers) == 0 {
			continue
		}
		_, faulted, c := p.mig.Migrate(movers, memsim.FastNode, now)
		cost += c
		if faulted > 0 {
			p.enqueue(&p.promoteQueue, kn)
		}
	}
	p.promoteQueue = dequeue(p.promoteQueue, n)
	return cost
}

// MetadataBytes reports Table 6's KLOC memory overhead.
func (p *KLOCs) MetadataBytes() int { return p.Reg.MetadataBytes() }

var _ kernel.Policy = (*KLOCs)(nil)
