// Package trace is the simulator's tracepoint-analog observability
// plane. The paper's characterization figures (Fig 2's footprints and
// lifetimes, Fig 4/5's placement and migration behaviour) were produced
// by instrumenting Linux allocation sites; this package gives the
// simulation the same first-class lens. Each subsystem declares named
// trace events — the analog of Linux tracepoints like kmem:kmalloc or
// block:block_rq_issue — and emits them from the code path that models
// the corresponding kernel site, carrying the virtual timestamp, the
// KLOC context (inode/socket number), the object class, the memory
// node/tier, and a size.
//
// Events land in a bounded ring buffer (like ftrace's per-CPU rings):
// memory stays fixed no matter how long the run is, and once the ring
// wraps the oldest events are overwritten and counted as dropped.
// Independent of the ring, the tracer keeps incremental per-event-name
// and per-context counters bucketed into virtual-time windows, so
// summary statistics cover the whole run even after drops.
//
// Like the fault and pressure planes, the tracer is nil-safe: every
// subsystem holds a possibly-nil *Tracer and calls Emit
// unconditionally. The plane is strictly passive — emitting charges no
// virtual cost and draws no randomness — so a run with tracing
// disabled (or enabled) is bit-identical to a run with no tracer at
// all, and two same-seed runs produce byte-identical trace files.
//
// The event catalog, field semantics, and export formats are documented
// in OBSERVABILITY.md; DESIGN.md §9 covers the model.
package trace

import (
	"fmt"
	"path"
	"slices"
	"sort"

	"kloc/internal/sim"
)

// Name identifies one trace event type, dotted subsystem-first like a
// Linux tracepoint ("alloc.slab" ~ kmem:kmalloc).
type Name string

// The trace event catalog. Emitting sites and field semantics are
// documented per event in OBSERVABILITY.md.
const (
	// AllocSlab: a slab-class kernel object was allocated (fs, netsim).
	AllocSlab Name = "alloc.slab"
	// AllocPage: a page-class allocation — page-cache/driver-buffer
	// kernel objects (fs, netsim) or application pages (kernel).
	AllocPage Name = "alloc.page"
	// ObjFree: a kernel object or application page was freed.
	ObjFree Name = "obj.free"
	// JournalCommit: the filesystem journal committed a transaction.
	JournalCommit Name = "fs.journal.commit"
	// BlockDispatch: the blk_mq layer dispatched a storage command.
	BlockDispatch Name = "blockdev.dispatch"
	// Migrate: one page frame moved between memory nodes.
	Migrate Name = "memsim.migrate"
	// NetRx: one ingress segment was delivered to a socket backlog.
	NetRx Name = "net.rx"
	// NetTx: one egress segment left through the NIC.
	NetTx Name = "net.tx"
	// KswapdWake: the background reclaimer woke below the low watermark.
	KswapdWake Name = "pressure.kswapd.wake"
	// DirectReclaim: an allocation slow path entered direct reclaim.
	DirectReclaim Name = "pressure.direct_reclaim"
	// OOMSpill: the OOM-grade degradation path evicted a KLOC context.
	OOMSpill Name = "oom.spill"
	// LBRoute: the cluster load balancer dispatched a request (or a
	// retry of one) to a backend machine.
	LBRoute Name = "lb.route"
	// LBRetry: a failed or timed-out request was scheduled for another
	// attempt after backoff.
	LBRetry Name = "lb.retry"
	// LBHedge: a hedged duplicate of a slow request was dispatched.
	LBHedge Name = "lb.hedge"
	// LBShed: admission control rejected a request at overload.
	LBShed Name = "lb.shed"
	// LBBreaker: a per-backend circuit breaker changed state.
	LBBreaker Name = "lb.breaker"
	// MachineCrash: a simulated machine crashed or restarted cold.
	MachineCrash Name = "machine.crash"
	// MachineHealth: the health checker ejected or re-admitted a
	// machine, or a machine's degradation state changed.
	MachineHealth Name = "machine.health"
	// ChaosSchedule: a chaos campaign armed a fault schedule for a run
	// (size = injection count; ctx = the schedule hash).
	ChaosSchedule Name = "chaos.schedule"
	// ChaosViolation: an invariant oracle rejected a run (class = the
	// oracle id).
	ChaosViolation Name = "chaos.violation"
	// ChaosMinimize: the delta-debugging minimizer finished shrinking a
	// violating schedule (size = minimal injection count).
	ChaosMinimize Name = "chaos.minimize"
)

// Names lists the catalog in stable (documentation) order.
func Names() []Name {
	return []Name{AllocSlab, AllocPage, ObjFree, JournalCommit, BlockDispatch,
		Migrate, NetRx, NetTx, KswapdWake, DirectReclaim, OOMSpill,
		LBRoute, LBRetry, LBHedge, LBShed, LBBreaker, MachineCrash, MachineHealth,
		ChaosSchedule, ChaosViolation, ChaosMinimize}
}

// Event is one emitted trace record.
type Event struct {
	// Seq is the event's global emission sequence number (0-based,
	// counted across drops — the ring may no longer hold earlier Seqs).
	Seq uint64
	// At is the virtual time of emission.
	At sim.Time
	// Name is the catalog event name.
	Name Name
	// Ctx is the KLOC context — the owning file or socket inode number
	// (0 = no context / not yet associated).
	Ctx uint64
	// Obj is an event-specific identifier: the kernel-object or frame
	// ID for allocation/free/migration events, the attempt count for
	// block dispatches, the reclaim target for pressure events.
	Obj uint64
	// Class is the event-specific object class ("dentry", "app",
	// "read", "write", ...).
	Class string
	// Node is the memory node / tier the event concerns (-1 = none;
	// the software queue index for block dispatches).
	Node int
	// Size is the event's payload size — bytes for allocations and
	// I/O, pages for migration and reclaim events.
	Size int64
}

// Config arms a Tracer. The zero value enables the full catalog. The
// ring holds the last bufferEvents events and per-context summaries
// count in summaryWindow buckets.
type Config struct {
	// Events enables only the event names matching at least one
	// pattern ("alloc.slab", "alloc.*", "pressure.*"). Empty enables
	// everything. Patterns use path.Match syntax over the dotted name.
	Events []string
}

const (
	// bufferEvents bounds the ring buffer. Older events are
	// overwritten — and counted as dropped — once the ring wraps.
	bufferEvents = 1 << 16
	// summaryWindow is the virtual-time bucket for per-context summary
	// counts.
	summaryWindow = 10 * sim.Millisecond
	// maxSummaryWindows bounds per-context window slices; events past
	// the last window accumulate there (a run longer than
	// summaryWindow × maxSummaryWindows keeps bounded memory).
	maxSummaryWindows = 1 << 12
	// maxStatsContexts bounds the contexts a Stats report carries.
	maxStatsContexts = 16
)

// ctxStat is one context's incremental accounting, mutated on the
// emit path.
type ctxStat struct {
	total   uint64
	windows []uint64
}

// nameState is the merged per-name record: one map lookup answers both
// "is this name enabled" and "where does its count live".
type nameState struct {
	enabled bool
	count   uint64
}

// Tracer is an armed tracing plane. A nil *Tracer is valid and records
// nothing, so subsystems hold a possibly-nil Tracer and call Emit
// unconditionally — the same discipline as fault.Plane. A Tracer is
// attached to one kernel instance and driven by the goroutine running
// that instance's engine.
type Tracer struct {
	cfg Config
	// names holds per-name state; the lastName/lastState MRU register
	// below usually saves even that one lookup, since emission is bursty.
	names map[Name]*nameState

	// ring grows by append up to bufferEvents, since most tracers
	// hold far fewer events than the bound, and is then reused in
	// overwrite order, which keeps steady-state Emit at zero heap
	// allocations. Append may leave its capacity above the bound, so
	// the bound, not cap, decides when it is full.
	ring []Event
	// next is the ring write index.
	next         int
	seq, dropped uint64

	byCtx map[uint64]*ctxStat

	// Context summaries commit run-length batched (DESIGN.md §13):
	// consecutive events against the same context in the same summary
	// window accumulate in the p* registers and commit as one net delta
	// when the run breaks (or on Stats). summaryCommits counts those
	// commits — the deterministic write-reduction meter.
	lastName       Name
	lastState      *nameState
	pCtx           uint64
	pStat          *ctxStat
	pWin           int
	pPending       uint64
	summaryCommits uint64
}

// New arms a tracer from a config.
func New(cfg Config) *Tracer {
	return &Tracer{
		cfg:   cfg,
		names: make(map[Name]*nameState),
		byCtx: make(map[uint64]*ctxStat),
	}
}

// nameState returns (creating if needed) the merged record for a name.
func (t *Tracer) nameState(name Name) *nameState {
	ns := t.names[name]
	if ns == nil {
		ns = &nameState{enabled: matchAny(t.cfg.Events, string(name))}
		t.names[name] = ns
	}
	return ns
}

// ctxState returns (creating if needed) a context's accounting.
func (t *Tracer) ctxState(ctx uint64) *ctxStat {
	cs := t.byCtx[ctx]
	if cs == nil {
		cs = &ctxStat{}
		t.byCtx[ctx] = cs
	}
	return cs
}

// flushPending commits the batched registers' run-length count into
// its context's summary. Idempotent; called on a run break and before
// any summary read, so readers always see exact totals.
func (t *Tracer) flushPending() {
	if t.pStat == nil || t.pPending == 0 {
		return
	}
	t.pStat.total += t.pPending
	for len(t.pStat.windows) <= t.pWin {
		t.pStat.windows = append(t.pStat.windows, 0)
	}
	t.pStat.windows[t.pWin] += t.pPending
	t.pPending = 0
	t.summaryCommits++
}

// nameCounts lists per-event-name totals in name order. Names with
// zero emissions are enablement memos, not counts, and are skipped.
func (t *Tracer) nameCounts() []NameCount {
	var out []NameCount
	for name, ns := range t.names {
		if ns.count > 0 {
			out = append(out, NameCount{Name: name, Count: ns.count})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SummaryCommits reports the run-length batched context-summary
// commits. Deterministic: a pure function of the emitted event
// sequence.
func (t *Tracer) SummaryCommits() uint64 {
	if t == nil {
		return 0
	}
	return t.summaryCommits
}

// matchAny reports whether s matches at least one pattern (empty
// pattern set matches everything). A malformed pattern matches
// nothing; CheckEvents rejects it up front.
func matchAny(patterns []string, s string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if ok, _ := path.Match(p, s); ok {
			return true
		}
	}
	return false
}

// CheckEvents rejects a Config.Events pattern that would silently trace
// nothing: one path.Match reports as malformed, or one that matches no
// name in the catalog.
func CheckEvents(patterns []string) error {
	for _, p := range patterns {
		if _, err := path.Match(p, ""); err != nil {
			return fmt.Errorf("trace: event pattern %q: %w", p, err)
		}
		if !slices.ContainsFunc(Names(), func(n Name) bool {
			ok, _ := path.Match(p, string(n))
			return ok
		}) {
			return fmt.Errorf("trace: event pattern %q matches no catalog event (see OBSERVABILITY.md)", p)
		}
	}
	return nil
}

// Emit records one event. Nil-safe and strictly passive: no virtual
// cost, no randomness, no observable effect on the simulation.
func (t *Tracer) Emit(name Name, at sim.Time, ctx, obj uint64, class string, node int, size int64) {
	if t == nil {
		return
	}
	ns := t.lastState
	if ns == nil || name != t.lastName {
		ns = t.nameState(name)
		t.lastName, t.lastState = name, ns
	}
	if !ns.enabled {
		return
	}
	e := Event{Seq: t.seq, At: at, Name: name, Ctx: ctx, Obj: obj,
		Class: class, Node: node, Size: size}
	t.seq++

	// Ring: grow until the bound, then overwrite oldest (counted as a
	// drop, like ftrace's overwrite mode).
	if len(t.ring) < bufferEvents {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.dropped++
	}
	t.next = (t.next + 1) % bufferEvents

	// Incremental summaries survive ring drops.
	ns.count++
	w := int(at / sim.Time(summaryWindow))
	if w >= maxSummaryWindows {
		w = maxSummaryWindows - 1
	}
	// Run-length commit: same context, same window — just extend the
	// pending run; the net delta commits when the run breaks.
	if t.pStat != nil && ctx == t.pCtx && w == t.pWin {
		t.pPending++
		return
	}
	t.flushPending()
	t.pCtx, t.pStat, t.pWin, t.pPending = ctx, t.ctxState(ctx), w, 1
}

// Emitted reports the total events recorded (including dropped ones).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Dropped reports events overwritten after the ring wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the buffered events oldest-first. The slice is a copy;
// mutating it does not disturb the ring.
func (t *Tracer) Events() []Event {
	older, newer := t.buffered()
	if len(older) == 0 {
		return nil
	}
	return append(append(make([]Event, 0, len(older)+len(newer)), older...), newer...)
}

// buffered returns the ring's events oldest-first as two runs, without
// copying: once the ring has wrapped, the oldest event is the one at
// the write index.
func (t *Tracer) buffered() (older, newer []Event) {
	if t == nil {
		return nil, nil
	}
	if len(t.ring) < bufferEvents {
		return t.ring, nil
	}
	return t.ring[t.next:], t.ring[:t.next]
}

// NameCount is one event name's total.
type NameCount struct {
	Name  Name
	Count uint64
}

// ContextSummary is one KLOC context's event activity over the run.
type ContextSummary struct {
	// Ctx is the context id (inode/socket number; 0 = unattributed).
	Ctx uint64
	// Total counts every event emitted against the context.
	Total uint64
	// Windows counts events per summaryWindow slice of virtual time,
	// starting at time zero.
	Windows []uint64
}

// Stats is the tracer's run summary: totals per event name and the
// most active KLOC contexts bucketed into virtual-time windows. It is
// computed from incremental counters, so it covers every emitted event
// even when the ring dropped some.
type Stats struct {
	Emitted, Dropped uint64
	// Window is the virtual-time bucket width for context windows.
	Window sim.Duration
	// ByName lists per-event-name totals in catalog-name order.
	ByName []NameCount
	// Contexts lists the most active contexts, busiest first (ties
	// break toward the lower context id), capped at 16 entries.
	Contexts []ContextSummary
}

// Stats summarizes the run so far. Deterministic: sorted output,
// independent of map iteration order.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.flushPending()
	s := Stats{Emitted: t.seq, Dropped: t.dropped, Window: summaryWindow}
	s.ByName = t.nameCounts()
	for ctx, cs := range t.byCtx {
		s.Contexts = append(s.Contexts, ContextSummary{
			Ctx: ctx, Total: cs.total,
			Windows: append([]uint64(nil), cs.windows...),
		})
	}
	sort.Slice(s.Contexts, func(i, j int) bool {
		if s.Contexts[i].Total != s.Contexts[j].Total {
			return s.Contexts[i].Total > s.Contexts[j].Total
		}
		return s.Contexts[i].Ctx < s.Contexts[j].Ctx
	})
	if len(s.Contexts) > maxStatsContexts {
		s.Contexts = s.Contexts[:maxStatsContexts]
	}
	return s
}
