package alloc

import (
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// ObjStats counts a subsystem's kernel objects by type.
type ObjStats struct {
	// ObjAllocs counts kernel-object allocations by type (Fig 2a).
	ObjAllocs [16]uint64
	// ObjLive tracks live objects by type.
	ObjLive [16]int64
}

// Objects is the kernel-object path: the filesystem and the network
// stack allocate, touch and free every Table 1 object through it, the
// way the paper's KLOC interface is one entry point for the kernel
// allocation sites it redirects (§4.4). Each allocation picks its
// backing as the policy directs — the context's arena, a shared KLOC or
// slab cache, or the page allocator — and is charged to virtual time,
// counted, reported to the policy hooks, traced and sanitized.
//
// Each subsystem owns one Objects; their caches and arenas are never
// shared.
type Objects struct {
	// Pressure, when non-nil, is the kernel's memory-pressure plane: an
	// allocation that finds no free page enters direct reclaim through
	// its shrinker registry. It is read at the failure, since the
	// kernel wires its plane after building the subsystems. Without
	// one, an exhausted allocation fails without reclaim.
	Pressure *pressure.Plane

	// Trace, when non-nil, records alloc.slab / alloc.page / obj.free
	// events. Strictly passive; nil disables tracing.
	Trace *trace.Tracer

	// San, when non-nil, is the KASAN/kmemleak-analog sanitizer: every
	// alloc, free, and access is reported to it. Strictly passive; nil
	// disables sanitizing.
	San *Sanitizer

	mem   *memsim.Memory
	hooks kstate.Hooks
	ids   *kstate.IDGen
	stats *ObjStats
	slabs map[kobj.Type]*SlabCache
	klocs map[kobj.Type]*SlabCache
	// arenas are per-context KLOC allocation regions (§4.4): slab-class
	// objects of a file or socket live in frames private to its KLOC,
	// so they can migrate with the knode without dragging other
	// contexts' objects.
	arenas map[uint64]*Arena
	// free holds released object structs, most recent last; the next
	// Alloc rewrites one in place instead of allocating, the way a
	// kmem_cache hands a freed object straight back out.
	free []*kobj.Object
}

// NewObjects builds an object path over the memory system that counts
// into stats. ids is shared across subsystems so object IDs are
// global.
func NewObjects(mem *memsim.Memory, hooks kstate.Hooks, ids *kstate.IDGen, stats *ObjStats) *Objects {
	return &Objects{
		mem:    mem,
		hooks:  hooks,
		ids:    ids,
		stats:  stats,
		slabs:  make(map[kobj.Type]*SlabCache),
		klocs:  make(map[kobj.Type]*SlabCache),
		arenas: make(map[uint64]*Arena),
	}
}

// Alloc allocates a kernel object of type t for context ino (0 while
// the owner is unknown), charges the cost, and fires the creation
// hook. When memory is exhausted it enters direct reclaim once and
// retries if the round freed pages.
func (a *Objects) Alloc(ctx *kstate.Ctx, t kobj.Type, ino uint64) (*kobj.Object, error) {
	o, err := a.allocOnce(ctx, t, ino)
	if err == memsim.ErrNoMemory && a.Pressure.DirectReclaim(ctx) > 0 {
		o, err = a.allocOnce(ctx, t, ino)
	}
	return o, err
}

func (a *Objects) allocOnce(ctx *kstate.Ctx, t kobj.Type, ino uint64) (*kobj.Object, error) {
	order := a.hooks.PlaceKernel(ctx, t, ino)
	id := kobj.ID(a.ids.Next())
	info := t.Info()
	var o *kobj.Object
	if info.Alloc == kobj.AllocPage {
		frame, err := a.mem.AllocFallback(order, memsim.ClassCache, ctx.Now)
		if err != nil {
			return nil, err
		}
		ctx.Charge(PageAllocCost)
		o = a.object(id, t, frame, ctx.Now, a.mem)
		a.hooks.PageAllocated(ctx, frame)
		a.Trace.Emit(trace.AllocPage, ctx.Now, ino, uint64(id), t.String(), int(frame.Node), int64(o.Size))
	} else {
		relocatable := a.hooks.UseKlocAllocator(t)
		if relocatable && ino != 0 {
			arena := a.arenas[ino]
			if arena == nil {
				arena = NewArena(a.mem)
				a.arenas[ino] = arena
			}
			frame, cost, err := arena.Alloc(order, info.Size, ctx.Now)
			if err != nil {
				return nil, err
			}
			ctx.Charge(cost)
			o = a.object(id, t, frame, ctx.Now, arena)
		} else {
			cache, err := a.cache(t, relocatable)
			if err != nil {
				return nil, err
			}
			frame, cost, err := cache.Alloc(order, ctx.Now)
			if err != nil {
				return nil, err
			}
			ctx.Charge(cost)
			o = a.object(id, t, frame, ctx.Now, cache)
		}
		a.Trace.Emit(trace.AllocSlab, ctx.Now, ino, uint64(id), t.String(), int(o.Frame.Node), int64(o.Size))
	}
	a.stats.ObjAllocs[t]++
	a.stats.ObjLive[t]++
	// Initialization writes the new object's memory: allocation cost is
	// tier-sensitive, which is why direct placement matters (§3.2).
	ctx.Charge(a.mem.Access(ctx.CPU, o.Frame, o.Size, true, ctx.Now))
	a.San.TrackAlloc(uint64(id), t.String(), ino, int64(o.Size), ctx.Now)
	a.hooks.ObjectCreated(ctx, ino, o)
	return o, nil
}

// object builds a new allocation's object, rewriting the most recently
// released struct when the free list holds one.
func (a *Objects) object(id kobj.ID, t kobj.Type, frame *memsim.Frame, born sim.Time, from kobj.Freer) *kobj.Object {
	n := len(a.free)
	if n == 0 {
		return kobj.NewObject(id, t, frame, born, from)
	}
	o := a.free[n-1]
	a.free = a.free[:n-1]
	o.Reset(id, t, frame, born, from)
	return o
}

// cache returns (creating on first use) the shared slab cache for t:
// the KLOC interface's relocatable cache, or the classic pinned one.
func (a *Objects) cache(t kobj.Type, relocatable bool) (*SlabCache, error) {
	m := a.slabs
	if relocatable {
		m = a.klocs
	}
	c := m[t]
	if c == nil {
		var err error
		if relocatable {
			c, err = NewKlocCache(a.mem, t.String()+"-kloc", t.Info().Size)
		} else {
			c, err = NewSlabCache(a.mem, t.String(), t.Info().Size)
		}
		if err != nil {
			return nil, err
		}
		m[t] = c
	}
	return c, nil
}

// Free releases an object in ctx, firing the free hooks, and keeps its
// struct for reuse. The freed object comes first, as in every Free*
// entry point of the module, so the lifecycle analyzer tracks it. A nil
// object is a no-op. A second Free of the same object before its
// struct is reused reaches the hooks and the sanitizer, which reports
// it, but does not put the struct on the free list twice; after reuse
// it would free the new object, so no pointer may outlive a Free.
func (a *Objects) Free(o *kobj.Object, ctx *kstate.Ctx) {
	if o == nil {
		return
	}
	a.San.TrackFree(uint64(o.ID), ctx.Now)
	node := -1
	if o.Frame != nil {
		node = int(o.Frame.Node)
	}
	a.Trace.Emit(trace.ObjFree, ctx.Now, o.Knode, uint64(o.ID), o.Type.String(), node, int64(o.Size))
	a.stats.ObjLive[o.Type]--
	a.hooks.ObjectFreed(ctx, o)
	if o.Type.Info().Alloc == kobj.AllocPage && o.Frame != nil {
		a.hooks.PageFreed(ctx, o.Frame)
	}
	if o.Release() {
		a.free = append(a.free, o)
	}
}

// Touch charges a memory access of bytes (the whole object when bytes
// <= 0) to the object's frame.
func (a *Objects) Touch(ctx *kstate.Ctx, o *kobj.Object, bytes int, write bool) {
	if o == nil {
		return
	}
	a.San.CheckAccess(uint64(o.ID), ctx.Now)
	if o.Frame == nil {
		return
	}
	if bytes <= 0 {
		bytes = o.Size
	}
	ctx.Charge(a.mem.Access(ctx.CPU, o.Frame, bytes, write, ctx.Now))
}

// DropArena forgets a dead context's arena. Every object in it must
// already be freed, which leaves the arena empty.
func (a *Objects) DropArena(ino uint64) { delete(a.arenas, ino) }
