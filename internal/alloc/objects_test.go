package alloc

import (
	"errors"
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/pressure"
	"kloc/internal/sim"
)

// klocHooks answers UseKlocAllocator with a fixed choice.
type klocHooks struct {
	kstate.NopHooks
	kloc bool
}

func (h klocHooks) UseKlocAllocator(kobj.Type) bool { return h.kloc }

// backings are the four backings the object path can choose: the
// context's arena, the shared KLOC cache (relocatable, but no context
// yet), the pinned slab cache, and the page allocator.
var backings = []struct {
	name   string
	typ    kobj.Type
	kloc   bool
	ino    uint64
	class  memsim.Class
	pinned bool
	// frames held by the context's arena, the KLOC cache and the slab
	// cache for the type.
	frames [3]int
	// charge is the first allocation's cost before its initializing
	// write.
	charge sim.Duration
}{
	{"arena", kobj.Dentry, true, 7, memsim.ClassKloc, false, [3]int{1, 0, 0}, KlocAllocCost + slabNewFrameCost},
	{"kloc-cache", kobj.SkBuff, true, 0, memsim.ClassKloc, false, [3]int{0, 1, 0}, KlocAllocCost + slabNewFrameCost},
	{"slab-cache", kobj.Dentry, false, 7, memsim.ClassSlab, true, [3]int{0, 0, 1}, SlabAllocCost + slabNewFrameCost},
	{"page", kobj.PageCache, true, 7, memsim.ClassCache, false, [3]int{}, PageAllocCost},
}

// TestObjectsBackings allocates one object on each backing and frees
// it again.
func TestObjectsBackings(t *testing.T) {
	for _, c := range backings {
		t.Run(c.name, func(t *testing.T) {
			m := mem()
			var ids kstate.IDGen
			var st ObjStats
			a := NewObjects(m, klocHooks{kloc: c.kloc}, &ids, &st, nil)
			ctx := &kstate.Ctx{}
			o, err := a.Alloc(ctx, c.typ, c.ino)
			if err != nil {
				t.Fatal(err)
			}
			if o.ID != 1 || o.Type != c.typ {
				t.Fatalf("object %+v", o)
			}
			if want := c.charge + m.Access(ctx.CPU, o.Frame, o.Size, true, ctx.Now); ctx.Cost != want {
				t.Fatalf("cost %v, want %v", ctx.Cost, want)
			}
			if o.Frame.Class != c.class || o.Frame.Pinned != c.pinned {
				t.Fatalf("frame class %v pinned %v, want %v %v", o.Frame.Class, o.Frame.Pinned, c.class, c.pinned)
			}
			arenaFrames, klocFrames, slabFrames := 0, 0, 0
			if ar := a.arenas[c.ino]; ar != nil {
				arenaFrames = ar.Frames()
			}
			if kc := a.klocs[c.typ]; kc != nil {
				klocFrames = kc.Frames()
			}
			if sc := a.slabs[c.typ]; sc != nil {
				slabFrames = sc.Frames()
			}
			if got := [3]int{arenaFrames, klocFrames, slabFrames}; got != c.frames {
				t.Fatalf("arena/kloc/slab frames = %v, want %v", got, c.frames)
			}
			if st.ObjAllocs[c.typ] != 1 || st.ObjLive[c.typ] != 1 {
				t.Fatalf("allocs %d live %d", st.ObjAllocs[c.typ], st.ObjLive[c.typ])
			}
			a.Free(o, ctx)
			if st.ObjLive[c.typ] != 0 || m.Frames() != 0 {
				t.Fatalf("after free: live %d, frames %d", st.ObjLive[c.typ], m.Frames())
			}
		})
	}
}

// objectChurn is one Alloc+Free pair on a backing.
func objectChurn(tb testing.TB, a *Objects, ctx *kstate.Ctx, typ kobj.Type, ino uint64) {
	o, err := a.Alloc(ctx, typ, ino)
	if err != nil {
		tb.Fatal(err)
	}
	a.Free(o, ctx)
}

// warmObjects returns an object path whose first churn on the backing
// has already created its cache or arena and recycled a frame.
func warmObjects(tb testing.TB, kloc bool, typ kobj.Type, ino uint64) (*Objects, *kstate.Ctx) {
	var ids kstate.IDGen
	hooks := klocHooks{NopHooks: kstate.NopHooks{Order: order}, kloc: kloc}
	a := NewObjects(mem(), hooks, &ids, &ObjStats{}, nil)
	ctx := &kstate.Ctx{}
	for i := 0; i < 4; i++ {
		objectChurn(tb, a, ctx, typ, ino)
	}
	return a, ctx
}

// TestObjectChurnIsAllocFree is the object path's allocation gate: on
// a warm path, an Alloc+Free pair on every backing allocates nothing.
// The storage's bookkeeping lives on the frame, the object keeps its
// allocator, and the freed kobj.Object is rewritten for the next
// Alloc, so a slot, a per-frame record, a release closure or a fresh
// object shows up here.
func TestObjectChurnIsAllocFree(t *testing.T) {
	for _, c := range backings {
		a, ctx := warmObjects(t, c.kloc, c.typ, c.ino)
		if avg := testing.AllocsPerRun(200, func() { objectChurn(t, a, ctx, c.typ, c.ino) }); avg != 0 {
			t.Errorf("%s: %.2f heap allocations per Alloc+Free, want 0", c.name, avg)
		}
	}
}

// BenchmarkObjectChurn times the loop of TestObjectChurnIsAllocFree,
// one Alloc+Free per op.
func BenchmarkObjectChurn(b *testing.B) {
	for _, c := range backings {
		b.Run(c.name, func(b *testing.B) {
			a, ctx := warmObjects(b, c.kloc, c.typ, c.ino)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				objectChurn(b, a, ctx, c.typ, c.ino)
			}
		})
	}
}

// heldFrames is a shrinker that frees one held frame per scan.
type heldFrames struct {
	m     *memsim.Memory
	held  []*memsim.Frame
	scans int
}

func (s *heldFrames) Name() string { return "held" }
func (s *heldFrames) Count() int   { return len(s.held) }
func (s *heldFrames) Scan(*kstate.Ctx, int) int {
	s.scans++
	if len(s.held) == 0 {
		return 0
	}
	s.m.Free(s.held[0])
	s.held = s.held[1:]
	return 1
}

// TestObjectsReclaimRetry: an allocation that finds memory exhausted
// reclaims once, and retries once only if the round freed something.
// The kernel's pressure plane takes precedence over the fallback.
func TestObjectsReclaimRetry(t *testing.T) {
	m := memsim.NewTwoTier(memsim.TwoTierConfig{FastPages: 2, FastBandwidth: 30, CPUs: 1})
	var ids kstate.IDGen
	var st ObjStats
	s := &heldFrames{m: m}
	for i := 0; i < 2; i++ {
		f, err := m.Alloc(memsim.FastNode, memsim.ClassApp, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.held = append(s.held, f)
	}
	ctx := &kstate.Ctx{}

	bare := NewObjects(m, kstate.NopHooks{}, &ids, &st, nil)
	if _, err := bare.Alloc(ctx, kobj.PageCache, 1); !errors.Is(err, memsim.ErrNoMemory) {
		t.Fatalf("no reclaim wired: err = %v", err)
	}
	if ids.Next() != 2 {
		t.Fatal("a failure with no reclaim must not retry")
	}

	a := NewObjects(m, kstate.NopHooks{}, &ids, &st, s)
	o, err := a.Alloc(ctx, kobj.PageCache, 1)
	if err != nil || s.scans != 1 {
		t.Fatalf("fallback reclaim: err %v after %d scans", err, s.scans)
	}
	if o.ID != 4 {
		t.Fatalf("retried object ID = %d, want 4 (one ID burnt per attempt)", o.ID)
	}
	s.held = nil // the last held frame stays allocated: nothing to give back
	if _, err := a.Alloc(ctx, kobj.PageCache, 1); !errors.Is(err, memsim.ErrNoMemory) || s.scans != 2 {
		t.Fatalf("fruitless reclaim: err %v after %d scans", err, s.scans)
	}
	if ids.Next() != 6 {
		t.Fatal("a round that freed nothing must not retry")
	}

	plane := pressure.NewPlane(m, memsim.FastNode)
	a.Pressure = plane
	if _, err := a.Alloc(ctx, kobj.PageCache, 1); !errors.Is(err, memsim.ErrNoMemory) {
		t.Fatalf("err = %v", err)
	}
	if plane.Stats.DirectReclaims != 1 || s.scans != 2 {
		t.Fatalf("direct reclaims %d, fallback scans %d: the plane must be used instead of the fallback",
			plane.Stats.DirectReclaims, s.scans)
	}
}
