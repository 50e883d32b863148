// Package kernel assembles the simulated OS: the memory system, the
// filesystem, the network stack, application-page management, lifetime
// accounting, and the policy daemon loop. Workloads talk to a Kernel;
// policies steer it through the kstate.Hooks they implement.
package kernel

import (
	"kloc/internal/alloc"
	"kloc/internal/blockdev"
	"kloc/internal/fault"
	"kloc/internal/fs"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/metrics"
	"kloc/internal/netsim"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// appIDBit distinguishes app-page frame IDs from kernel-object IDs in
// the sanitizer's shared keyspace.
const appIDBit = uint64(1) << 63

// Policy is what a tiering strategy must provide beyond the kernel
// hooks: identity, attachment, and a periodic daemon tick.
type Policy interface {
	kstate.Hooks
	Name() string
	// Attach wires the policy to the kernel before the run starts.
	Attach(k *Kernel)
	// Tick runs the policy's background daemon work (LRU scans,
	// migrations) and returns the virtual time it consumed. The daemon
	// reschedules itself after max(period, cost).
	Tick(now sim.Time) sim.Duration
	// TickPeriod is the daemon cadence.
	TickPeriod() sim.Duration
}

// Stats aggregates kernel-level accounting, bumped on the op hot path.
type Stats struct {
	AppPagesAllocated uint64
	AppPagesFreed     uint64
	AppAccesses       uint64
	Syscalls          uint64
}

// Kernel is the assembled simulated OS instance.
type Kernel struct {
	Eng *sim.Engine
	Mem *memsim.Memory
	FS  *fs.FS
	Net *netsim.Net

	// Pressure is the memory-pressure plane: the shrinker registry is
	// the kernel's single reclaim entry point (fs and netsim route
	// their allocation slow paths through it).
	Pressure *pressure.Plane

	Policy Policy

	// Trace is the armed tracing plane (nil when tracing is off); see
	// AttachTracer. Kernel-level events (app pages, oom.spill) emit
	// through it directly. Rewired only between runs, at quiescence.
	Trace *trace.Tracer

	// San is the armed runtime sanitizer (nil when sanitizing is off);
	// see AttachSanitizer. Kernel-level app-page alloc/free/access
	// report through it directly. Rewired only between runs.
	San *alloc.Sanitizer

	// Lifetimes records object/page lifetimes by class (Fig 2d).
	Lifetimes *metrics.LifetimeTracker

	// taskSocket is the socket the workload currently runs on (Optane
	// experiments migrate the task mid-run). The migration is a
	// scheduled event on this kernel's own engine.
	taskSocket int
	// localCPUs lists taskSocket's CPUs in ID order for CPUFor;
	// SetTaskSocket rebuilds it.
	localCPUs []int

	objIDs kstate.IDGen
	inoGen kstate.IDGen

	// appMapped counts the frames with Frame.Mapped set (AppPages).
	appMapped int

	// ctxPool recycles retired op contexts (see NewCtx/PutCtx).
	// ctxFresh/ctxReused meter the pool.
	ctxPool             []*kstate.Ctx
	ctxFresh, ctxReused uint64

	Stats Stats
}

// New assembles a kernel over a memory platform with the given policy.
func New(eng *sim.Engine, mem *memsim.Memory, pol Policy) *Kernel {
	k := &Kernel{
		Eng:       eng,
		Mem:       mem,
		Policy:    pol,
		Lifetimes: metrics.NewLifetimeTracker(),
	}
	k.SetTaskSocket(0)
	hooks := &muxHooks{kernel: k, policy: pol}
	mq := blockdev.NewMQ(blockdev.SimNVMe(), mem.NumCPUs())
	k.FS = fs.New(mem, mq, hooks, &k.objIDs, &k.inoGen)
	k.Net = netsim.New(mem, hooks, &k.objIDs, &k.inoGen)
	// The pressure plane is the single reclaim entry point: every
	// subsystem's allocation slow path goes through its shrinker
	// registry (page cache, dentry/inode caches, skbuff backlogs), and
	// the OOM evictor degrades gracefully when the caches run dry.
	k.Pressure = pressure.NewPlane(mem, memsim.FastNode)
	k.Pressure.Register(k.FS.PageCacheShrinker())
	k.Pressure.Register(k.FS.DentryShrinker())
	k.Pressure.Register(k.Net.SkbuffShrinker())
	k.Pressure.OOM = &oomEvictor{k: k}
	k.FS.Objs.Pressure = k.Pressure
	k.Net.Objs.Pressure = k.Pressure
	pol.Attach(k)
	return k
}

// InjectFaults arms a fault-injection plane across every subsystem:
// the memory system (allocation + migration points), the storage
// device (blockdev.io), and — because netsim consults the plane
// through the shared Memory — packet ingress. Passing nil disarms.
func (k *Kernel) InjectFaults(p *fault.Plane) {
	k.Mem.Fault = p
	k.FS.MQ.Dev.Fault = p
}

// FaultPlane returns the armed plane, if any.
func (k *Kernel) FaultPlane() *fault.Plane { return k.Mem.Fault }

// AttachTracer arms a tracing plane across every subsystem that emits
// trace events: the filesystem and the network stack with their
// kernel-object paths, the blk_mq dispatch layer, the memory system's
// migrator, the pressure plane, and the kernel's own app-page and OOM
// paths. The tracer is strictly
// passive, so attaching (or passing nil to detach) never perturbs the
// simulation.
func (k *Kernel) AttachTracer(t *trace.Tracer) {
	k.Trace = t
	k.FS.Trace = t
	k.FS.Objs.Trace = t
	k.Net.Trace = t
	k.Net.Objs.Trace = t
	k.FS.MQ.Trace = t
	k.Mem.Trace = t
	k.Pressure.Trace = t
}

// AttachSanitizer arms the KASAN/kmemleak-analog runtime sanitizer
// across every subsystem that allocates tracked objects: the
// filesystem's and the network stack's kernel-object paths plus the
// kernel's own app-page path. Like the tracer, the sanitizer is strictly passive — it never
// charges virtual time or perturbs allocator state — so a sanitized
// run is bit-identical to an unsanitized one at the same seed.
// Passing nil detaches.
func (k *Kernel) AttachSanitizer(s *alloc.Sanitizer) {
	k.San = s
	k.FS.Objs.San = s
	k.Net.Objs.San = s
}

// SanitizeReport runs the kmemleak-style teardown scan and returns the
// sanitizer's report: the kernel marks every object reachable from its
// roots (live inodes' object trees, pending journal buffers, open
// sockets and their ingress queues, mapped app pages), and whatever
// tracked-live object goes unmarked is reported as a leak grouped by
// KLOC context. Returns nil when no sanitizer is attached.
func (k *Kernel) SanitizeReport(at sim.Time) *alloc.SanReport {
	if k.San == nil {
		return nil
	}
	k.San.BeginScan()
	k.FS.MarkReachable(k.San)
	k.Net.MarkReachable(k.San)
	k.Mem.EachLive(func(f *memsim.Frame) {
		if f.Mapped {
			k.San.MarkReachable(appIDBit | uint64(f.ID))
		}
	})
	return k.San.Report(at)
}

// Start launches the policy daemon (and, when configured, the kswapd
// background reclaimer) on the engine.
func (k *Kernel) Start() {
	k.Pressure.StartKswapd(k.Eng)
	period := k.Policy.TickPeriod()
	if period <= 0 {
		return
	}
	var tick sim.Func
	tick = func(e *sim.Engine) {
		cost := k.Policy.Tick(e.Now())
		next := period
		if cost > next {
			next = cost
		}
		e.After(next, tick)
	}
	k.Eng.After(period, tick)
}

// TaskSocket reports the socket the workload runs on.
func (k *Kernel) TaskSocket() int { return k.taskSocket }

// SetTaskSocket moves the workload's execution to another socket
// (the Optane interference scenario, §6.2).
func (k *Kernel) SetTaskSocket(s int) {
	k.taskSocket = s
	k.localCPUs = k.localCPUs[:0]
	for cpu, sock := range k.Mem.CPUSocket {
		if sock == s {
			k.localCPUs = append(k.localCPUs, cpu)
		}
	}
}

// CPUFor maps a workload thread to a CPU on the current task socket.
func (k *Kernel) CPUFor(thread int) int {
	if len(k.localCPUs) == 0 {
		return thread % k.Mem.NumCPUs()
	}
	return k.localCPUs[thread%len(k.localCPUs)]
}

// NewCtx builds an operation context for a workload thread at the
// current virtual time. A retired context (see PutCtx) is recycled
// instead of allocated; the reset writes every field, so a recycled
// context is indistinguishable from a fresh one.
func (k *Kernel) NewCtx(thread int) *kstate.Ctx {
	k.Stats.Syscalls++
	if last := len(k.ctxPool) - 1; last >= 0 {
		c := k.ctxPool[last]
		k.ctxPool = k.ctxPool[:last]
		*c = kstate.Ctx{CPU: k.CPUFor(thread), Now: k.Eng.Now()}
		k.ctxReused++
		return c
	}
	k.ctxFresh++
	return &kstate.Ctx{CPU: k.CPUFor(thread), Now: k.Eng.Now()}
}

// PutCtx returns a retired op context to the pool. Callers must not
// retain or read ctx afterwards — NewCtx may hand the same struct to
// the next operation. A no-op (safe to call unconditionally) when ctx
// is nil.
func (k *Kernel) PutCtx(c *kstate.Ctx) {
	if c == nil {
		return
	}
	k.ctxPool = append(k.ctxPool, c)
}

// CtxPoolCounters reports how many op contexts were freshly allocated
// vs recycled — a deterministic pool-effectiveness meter for the perf
// harness.
func (k *Kernel) CtxPoolCounters() (fresh, reused uint64) {
	return k.ctxFresh, k.ctxReused
}

// --- application pages ---

// appReclaimRetries bounds AppAlloc's direct-reclaim attempts: each
// round that makes progress earns one more allocation retry; a round
// with no progress gives up immediately.
const appReclaimRetries = 4

// AppAlloc allocates n application pages placed by the policy,
// returning the frames. Under exhaustion it enters direct reclaim
// (watermark-derived target, bounded retries) before failing.
func (k *Kernel) AppAlloc(ctx *kstate.Ctx, n int) ([]*memsim.Frame, error) {
	order := k.Policy.PlaceApp(ctx)
	out := make([]*memsim.Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := k.Mem.AllocFallback(order, memsim.ClassApp, ctx.Now)
		for try := 0; err == memsim.ErrNoMemory && try < appReclaimRetries; try++ {
			if k.Pressure.DirectReclaim(ctx) == 0 {
				break // no progress: more retries cannot help
			}
			f, err = k.Mem.AllocFallback(order, memsim.ClassApp, ctx.Now)
		}
		if err != nil {
			return out, err
		}
		ctx.Charge(300) // page fault + zeroing fast path
		k.Trace.Emit(trace.AllocPage, ctx.Now, 0, uint64(f.ID), "app",
			int(f.Node), int64(f.Pages())*memsim.PageSize)
		f.Mapped = true
		k.appMapped++
		k.San.TrackAlloc(appIDBit|uint64(f.ID), "app", 0, int64(f.Pages())*memsim.PageSize, ctx.Now)
		k.Stats.AppPagesAllocated++
		k.Policy.PageAllocated(ctx, f)
		out = append(out, f)
	}
	return out, nil
}

// hugeOrder is the transparent-huge-page order (2 MB).
const hugeOrder = 9

// AppAllocHuge allocates n transparent huge pages (2 MB compound
// frames) placed by the policy. THP regions tier as single units, which
// is how §5 expects KLOCs to compose with multi-page sizes.
func (k *Kernel) AppAllocHuge(ctx *kstate.Ctx, n int) ([]*memsim.Frame, error) {
	order := k.Policy.PlaceApp(ctx)
	out := make([]*memsim.Frame, 0, n)
	for i := 0; i < n; i++ {
		var f *memsim.Frame
		var err error
		for _, node := range order {
			if f, err = k.Mem.AllocOrder(node, memsim.ClassApp, hugeOrder, ctx.Now); err == nil {
				break
			}
		}
		if err != nil {
			return out, err
		}
		ctx.Charge(1200) // huge-page fault: clearing + mapping
		k.Trace.Emit(trace.AllocPage, ctx.Now, 0, uint64(f.ID), "app",
			int(f.Node), int64(f.Pages())*memsim.PageSize)
		f.Mapped = true
		k.appMapped++
		k.San.TrackAlloc(appIDBit|uint64(f.ID), "app", 0, int64(f.Pages())*memsim.PageSize, ctx.Now)
		k.Stats.AppPagesAllocated += uint64(f.Pages())
		k.Policy.PageAllocated(ctx, f)
		out = append(out, f)
	}
	return out, nil
}

// AppAccess touches an application page.
func (k *Kernel) AppAccess(ctx *kstate.Ctx, f *memsim.Frame, bytes int, write bool) {
	if bytes <= 0 {
		bytes = memsim.PageSize
	}
	k.San.CheckAccess(appIDBit|uint64(f.ID), ctx.Now)
	ctx.Charge(k.Mem.Access(ctx.CPU, f, bytes, write, ctx.Now))
	k.Stats.AppAccesses++
	k.Policy.PageAccessed(ctx, f)
}

// AppFree releases application pages.
func (k *Kernel) AppFree(ctx *kstate.Ctx, frames []*memsim.Frame) {
	for _, f := range frames {
		if !f.Mapped {
			continue
		}
		f.Mapped = false
		k.appMapped--
		k.San.TrackFree(appIDBit|uint64(f.ID), ctx.Now)
		k.Trace.Emit(trace.ObjFree, ctx.Now, 0, uint64(f.ID), "app",
			int(f.Node), int64(f.Pages())*memsim.PageSize)
		k.Lifetimes.Died("app", f.Allocated, ctx.Now)
		k.Policy.PageFreed(ctx, f)
		k.Mem.Free(f)
		k.Stats.AppPagesFreed++
	}
}

// AppPages reports the live app-page count.
func (k *Kernel) AppPages() int { return k.appMapped }

// ObjIDs exposes the shared object-ID generator (tests).
func (k *Kernel) ObjIDs() *kstate.IDGen { return &k.objIDs }

// lifetimeClass buckets object types the way Fig 2d reports them.
func lifetimeClass(t kobj.Type) string {
	if t.Info().Alloc == kobj.AllocSlab {
		return "slab"
	}
	return "cache"
}

// muxHooks fans kernel-internal accounting and the policy's hooks out
// of one Hooks implementation handed to fs and netsim.
type muxHooks struct {
	kernel *Kernel
	policy Policy
}

func (m *muxHooks) PlaceKernel(ctx *kstate.Ctx, t kobj.Type, ino uint64) []memsim.NodeID {
	return m.policy.PlaceKernel(ctx, t, ino)
}
func (m *muxHooks) PlaceApp(ctx *kstate.Ctx) []memsim.NodeID { return m.policy.PlaceApp(ctx) }
func (m *muxHooks) UseKlocAllocator(t kobj.Type) bool        { return m.policy.UseKlocAllocator(t) }
func (m *muxHooks) DriverSockExtract() bool                  { return m.policy.DriverSockExtract() }

func (m *muxHooks) InodeCreated(ctx *kstate.Ctx, ino uint64, sock bool) {
	m.policy.InodeCreated(ctx, ino, sock)
}
func (m *muxHooks) InodeOpened(ctx *kstate.Ctx, ino uint64)  { m.policy.InodeOpened(ctx, ino) }
func (m *muxHooks) InodeClosed(ctx *kstate.Ctx, ino uint64)  { m.policy.InodeClosed(ctx, ino) }
func (m *muxHooks) InodeDeleted(ctx *kstate.Ctx, ino uint64) { m.policy.InodeDeleted(ctx, ino) }

func (m *muxHooks) ObjectCreated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	m.policy.ObjectCreated(ctx, ino, o)
}
func (m *muxHooks) ObjectAssociated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	m.kernel.San.Associate(uint64(o.ID), ino)
	m.policy.ObjectAssociated(ctx, ino, o)
}
func (m *muxHooks) ObjectFreed(ctx *kstate.Ctx, o *kobj.Object) {
	m.kernel.Lifetimes.Died(lifetimeClass(o.Type), o.Born, ctx.Now)
	m.policy.ObjectFreed(ctx, o)
}

func (m *muxHooks) PageAllocated(ctx *kstate.Ctx, f *memsim.Frame) { m.policy.PageAllocated(ctx, f) }
func (m *muxHooks) PageAccessed(ctx *kstate.Ctx, f *memsim.Frame)  { m.policy.PageAccessed(ctx, f) }
func (m *muxHooks) PageFreed(ctx *kstate.Ctx, f *memsim.Frame)     { m.policy.PageFreed(ctx, f) }

var _ kstate.Hooks = (*muxHooks)(nil)
