// Package pressure is the simulator's memory-pressure plane: the
// control loops a real kernel runs between "allocation failed" and
// "process killed". It models Linux's min/low/high zone watermarks, a
// kswapd-analog background reclaimer ticking in virtual time, a
// registry of count/scan shrinkers (page cache, dentry/inode caches,
// skbuff pools), direct reclaim with a bounded retry budget, a
// GFP_ATOMIC emergency reserve for contexts that cannot sleep (packet
// ingress, journal commits), and an OOM-grade degradation path that
// spills the worst-scoring KLOC context to the slow tier instead of
// panicking.
//
// Determinism: the plane draws no randomness of its own. Reclaim
// rounds consult the fault plane's pressure.reclaim point (its private
// RNG stream) and everything else is driven by virtual time and
// deterministic shrinker state, so two runs at the same seed produce
// byte-identical reclaim behaviour.
package pressure

import (
	"kloc/internal/fault"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// Shrinker is the Linux count_objects/scan_objects interface: Count
// reports how many objects the cache could give back, Scan frees up to
// n of them and reports how many it actually freed. Scan must be safe
// to call re-entrantly from any kernel path (the plane guards against
// reclaim recursion itself).
type Shrinker interface {
	Name() string
	Count() int
	Scan(ctx *kstate.Ctx, n int) int
}

// OOMEvictor is the last-resort degradation path: evict the
// worst-scoring context's relocatable objects off the pressured node
// (spilling them to the slow tier, or freeing them if no tier has
// room) and report the pages recovered on that node.
type OOMEvictor interface {
	EvictWorst(ctx *kstate.Ctx, node memsim.NodeID) int
}

// ShrinkerStat is one shrinker's cumulative reclaim accounting.
type ShrinkerStat struct {
	Name string
	// Scans counts Scan invocations.
	Scans uint64
	// FreedObjects sums Scan return values.
	FreedObjects uint64
	// FreedPages sums the free-page growth attributed to this
	// shrinker's scans.
	FreedPages uint64
}

// Stats aggregates the plane's counters for harness reporting.
type Stats struct {
	// DirectReclaims counts direct-reclaim invocations (allocation
	// slow path entered).
	DirectReclaims uint64
	// DirectReclaimPages counts pages recovered by direct reclaim,
	// including OOM spills it triggered.
	DirectReclaimPages uint64
	// KswapdWakeups counts background ticks that found the node below
	// the low watermark and reclaimed.
	KswapdWakeups uint64
	// KswapdPages counts pages recovered by the background reclaimer.
	KswapdPages uint64
	// OOMEvictions / OOMPagesSpilled count last-resort context
	// evictions and the pages they recovered.
	OOMEvictions    uint64
	OOMPagesSpilled uint64
	// ReclaimFaults counts reclaim rounds aborted by the fault plane's
	// pressure.reclaim point.
	ReclaimFaults uint64
}

// Config tunes the plane. The zero value keeps kswapd disabled; direct
// reclaim and the shrinker registry work regardless.
type Config struct {
	// KswapdPeriod is the background reclaimer's tick period; zero
	// disables the daemon.
	KswapdPeriod sim.Duration
}

const (
	// directRetries bounds the shrink rounds per direct-reclaim call.
	directRetries = 4
	// kswapdBatch bounds the reclaim rounds per kswapd wakeup.
	kswapdBatch = 8
	// minReclaimTarget is the floor on a direct-reclaim page target,
	// replacing the old hardcoded one-shot FS.Reclaim(ctx, 64).
	minReclaimTarget = 64
)

type shrinkerEntry struct {
	s    Shrinker
	stat ShrinkerStat
}

// Plane is the armed pressure subsystem for one pressured node
// (the fast tier). A nil *Plane is valid: every method no-ops.
type Plane struct {
	Mem *memsim.Memory
	// Node is the pressured node whose watermarks drive reclaim.
	Node memsim.NodeID
	// OOM, when non-nil, is the last-resort eviction path.
	OOM OOMEvictor

	cfg Config
	// shrinkers in registration order — the scan order, so the order
	// of Register calls is part of the deterministic behaviour.
	shrinkers []*shrinkerEntry
	// reclaiming guards against reclaim recursion (a shrinker whose
	// writeback path allocates must not re-enter reclaim) — the
	// PF_MEMALLOC analog.
	reclaiming bool
	// kswapdOn remembers that StartKswapd armed the daemon.
	kswapdOn bool

	// Trace, when non-nil, records pressure.kswapd.wake and
	// pressure.direct_reclaim events. Strictly passive.
	Trace *trace.Tracer

	Stats Stats
}

// NewPlane builds a pressure plane for the given pressured node. The
// plane is functional immediately (direct reclaim, shrinkers, OOM);
// Configure installs watermarks and enables kswapd.
func NewPlane(mem *memsim.Memory, node memsim.NodeID) *Plane {
	return &Plane{Mem: mem, Node: node}
}

// Configure applies cfg and installs watermarks derived from the
// pressured node's capacity (min ≈ capacity/64), enabling the
// allocation reserve gate in memsim; until then the gate is off. Other
// thresholds are installed on the node itself (Node.SetWatermarks).
func (p *Plane) Configure(cfg Config) {
	if p == nil {
		return
	}
	n := p.Mem.Node(p.Node)
	n.SetWatermarks(memsim.DeriveWatermarks(n.Capacity))
	p.cfg = cfg
}

// Register appends a shrinker to the registry. Registration order is
// scan order.
func (p *Plane) Register(s Shrinker) {
	if p == nil {
		return
	}
	p.shrinkers = append(p.shrinkers, &shrinkerEntry{s: s, stat: ShrinkerStat{Name: s.Name()}})
}

// ShrinkerStats returns per-shrinker reclaim accounting in scan order.
func (p *Plane) ShrinkerStats() []ShrinkerStat {
	if p == nil {
		return nil
	}
	out := make([]ShrinkerStat, len(p.shrinkers))
	for i, e := range p.shrinkers {
		out[i] = e.stat
	}
	return out
}

// watermarks returns the operative watermarks for the pressured node:
// the installed ones, or capacity-derived defaults when the reserve
// gate is off (so reclaim targets are sensible either way).
func (p *Plane) watermarks() memsim.Watermarks {
	n := p.Mem.Node(p.Node)
	if w := n.NodeWatermarks(); !w.Zero() {
		return w
	}
	return memsim.DeriveWatermarks(n.Capacity)
}

// totalFree sums free pages across all nodes. Shrinkers free objects
// wherever they live; any freed page can satisfy a fallback-order
// retry, so progress is measured globally.
func (p *Plane) totalFree() int {
	free := 0
	for _, n := range p.Mem.Nodes {
		free += n.Free()
	}
	return free
}

// shrinkAll runs one round over the registry, asking each shrinker for
// up to want objects. Returns objects freed and the global free-page
// growth. Pages are attributed to the shrinker whose scan produced
// them.
func (p *Plane) shrinkAll(ctx *kstate.Ctx, want int) (objs, pages int) {
	for _, e := range p.shrinkers {
		avail := e.s.Count()
		if avail == 0 {
			continue
		}
		batch := want
		if batch > avail {
			batch = avail
		}
		if batch < 1 {
			batch = 1
		}
		before := p.totalFree()
		n := e.s.Scan(ctx, batch)
		delta := p.totalFree() - before
		if delta < 0 {
			delta = 0
		}
		e.stat.Scans++
		e.stat.FreedObjects += uint64(n)
		e.stat.FreedPages += uint64(delta)
		objs += n
		pages += delta
	}
	return objs, pages
}

// oomEvict runs the last-resort path and returns pages recovered.
func (p *Plane) oomEvict(ctx *kstate.Ctx) int {
	if p.OOM == nil {
		return 0
	}
	spilled := p.OOM.EvictWorst(ctx, p.Node)
	if spilled > 0 {
		p.Stats.OOMEvictions++
		p.Stats.OOMPagesSpilled += uint64(spilled)
	}
	return spilled
}

// DirectReclaim is the allocation slow path: called after an ENOMEM,
// it shrinks the registered caches toward the high watermark with a
// bounded retry budget, stopping early on no-progress, and falls back
// to the OOM evictor when the caches are dry and the node sits below
// its Min watermark. Runs in atomic context (PF_MEMALLOC): its own
// allocations (writeback bios) may dip into the reserve and never
// recurse into reclaim. Returns pages recovered (0 = give up).
func (p *Plane) DirectReclaim(ctx *kstate.Ctx) int {
	if p == nil || p.reclaiming {
		return 0
	}
	p.reclaiming = true
	exit := p.Mem.EnterAtomic()
	defer func() {
		exit()
		p.reclaiming = false
	}()
	p.Stats.DirectReclaims++

	node := p.Mem.Node(p.Node)
	wm := p.watermarks()
	target := wm.High - node.Free()
	if target < minReclaimTarget {
		target = minReclaimTarget
	}
	freed := 0
	for round := 0; round < directRetries && freed < target; round++ {
		if e := p.Mem.Fault.Check(fault.Reclaim, ctx.Now); e != 0 {
			p.Stats.ReclaimFaults++
			break
		}
		objs, pages := p.shrinkAll(ctx, target-freed)
		if objs == 0 && pages == 0 {
			break // no progress: retrying cannot help
		}
		freed += pages
	}
	if freed == 0 && node.Free() <= wm.Min {
		freed += p.oomEvict(ctx)
	}
	p.Stats.DirectReclaimPages += uint64(freed)
	p.Trace.Emit(trace.DirectReclaim, ctx.Now, 0, uint64(target), "reclaim",
		int(p.Node), int64(freed))
	return freed
}

// KswapdEnabled reports whether Configure armed the background
// reclaimer.
func (p *Plane) KswapdEnabled() bool {
	return p != nil && p.cfg.KswapdPeriod > 0
}

// StartKswapd schedules the background reclaimer on the engine. Each
// tick checks the pressured node against the low watermark; below it,
// the daemon shrinks toward the high watermark in bounded rounds
// (falling back to the OOM evictor on no-progress) and reschedules
// after max(period, work cost) — the same daemon idiom as the policy
// tick, so a busy reclaimer slows itself down rather than flooding the
// event queue.
func (p *Plane) StartKswapd(e *sim.Engine) {
	if !p.KswapdEnabled() || p.kswapdOn {
		return
	}
	p.kswapdOn = true
	period := p.cfg.KswapdPeriod
	var tick sim.Func
	tick = func(e *sim.Engine) {
		ctx := &kstate.Ctx{CPU: 0, Now: e.Now()}
		p.kswapdTick(ctx)
		next := period
		if ctx.Cost > next {
			next = ctx.Cost
		}
		e.After(next, tick)
	}
	e.After(period, tick)
}

// kswapdTick is one background-reclaim pass.
func (p *Plane) kswapdTick(ctx *kstate.Ctx) {
	node := p.Mem.Node(p.Node)
	wm := p.watermarks()
	if node.Free() >= wm.Low {
		return
	}
	p.Stats.KswapdWakeups++
	deficit := wm.High - node.Free()
	p.reclaiming = true
	exit := p.Mem.EnterAtomic()
	defer func() {
		exit()
		p.reclaiming = false
	}()

	freed := 0
	for round := 0; round < kswapdBatch && node.Free() < wm.High; round++ {
		if e := p.Mem.Fault.Check(fault.Reclaim, ctx.Now); e != 0 {
			p.Stats.ReclaimFaults++
			break
		}
		want := wm.High - node.Free()
		objs, pages := p.shrinkAll(ctx, want)
		if objs == 0 && pages == 0 {
			// Caches are dry but the node is still under pressure:
			// degrade by spilling the worst context, then stop.
			if node.Free() <= wm.Min {
				freed += p.oomEvict(ctx)
			}
			break
		}
		freed += pages
	}
	p.Stats.KswapdPages += uint64(freed)
	p.Trace.Emit(trace.KswapdWake, ctx.Now, 0, uint64(deficit), "kswapd",
		int(p.Node), int64(freed))
}
