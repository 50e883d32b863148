package alloc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// recHooks records every hook call the object path makes, and stamps
// a new object's knode with its context, as the KLOC policy does.
// Dentry and skbuff objects take the KLOC allocator (an arena with a
// context, the shared KLOC cache without); inode and journal objects
// the pinned slab; page-cache and rx-buffer objects the page allocator.
type recHooks struct {
	kstate.NopHooks
	calls []string
}

func (h *recHooks) log(format string, args ...any) {
	h.calls = append(h.calls, fmt.Sprintf(format, args...))
}

func (h *recHooks) PlaceKernel(ctx *kstate.Ctx, t kobj.Type, ino uint64) []memsim.NodeID {
	h.log("place %s %d", t, ino)
	return h.NopHooks.PlaceKernel(ctx, t, ino)
}

func (h *recHooks) UseKlocAllocator(t kobj.Type) bool {
	h.log("kloc? %s", t)
	return t == kobj.Dentry || t == kobj.SkBuff
}

func (h *recHooks) ObjectCreated(_ *kstate.Ctx, ino uint64, o *kobj.Object) {
	h.log("created %d ino %d frame %d", o.ID, ino, o.Frame.ID)
	o.Knode = ino
}

func (h *recHooks) ObjectFreed(_ *kstate.Ctx, o *kobj.Object) {
	h.log("freed %d knode %d", o.ID, o.Knode)
}

func (h *recHooks) PageAllocated(_ *kstate.Ctx, f *memsim.Frame) { h.log("page+ %d", f.ID) }
func (h *recHooks) PageFreed(_ *kstate.Ctx, f *memsim.Frame)     { h.log("page- %d", f.ID) }

// poolSide is one object path of TestPooledObjectsMatchFresh with
// everything it reports into.
type poolSide struct {
	a     *Objects
	hooks *recHooks
	stats *ObjStats
	san   *Sanitizer
}

func newPoolSide() poolSide {
	m := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 24, SlowPages: 24,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 2,
	})
	s := poolSide{hooks: &recHooks{NopHooks: kstate.NopHooks{}}, stats: &ObjStats{}, san: NewSanitizer()}
	var ids kstate.IDGen
	s.a = NewObjects(m, s.hooks, &ids, s.stats)
	s.a.San = s.san
	return s
}

// report is the sanitizer's report with every held object marked
// reachable.
func (s poolSide) report(held []*kobj.Object, now sim.Time) *SanReport {
	s.san.BeginScan()
	for _, o := range held {
		s.san.MarkReachable(uint64(o.ID))
	}
	return s.san.Report(now)
}

// objectView is what an object tells its holder.
type objectView struct {
	ID                kobj.ID
	Type              kobj.Type
	Size              int
	Frame             memsim.FrameID
	Node              memsim.NodeID
	Knode             uint64
	Born              sim.Time
	Dirty, Prefetched bool
}

func viewOf(o *kobj.Object) objectView {
	v := objectView{ID: o.ID, Type: o.Type, Size: o.Size, Node: -1, Knode: o.Knode, Born: o.Born,
		Dirty: o.Dirty, Prefetched: o.Prefetched}
	if o.Frame != nil {
		v.Frame, v.Node = o.Frame.ID, o.Frame.Node
	}
	return v
}

// TestPooledObjectsMatchFresh drives a pooled object path and a fresh
// one through one seeded random sequence of allocs, frees, touches,
// page-flag writes and stale uses (a touch and a second free of an
// object whose struct has not been reused yet) across all four
// backings and several contexts. The fresh side drains its free list
// before every Alloc, which is the path before objects recycled. After
// every step the two must agree on every held object (ID, type, size,
// frame, node, knode, birth, page flags), each alloc's cost and error,
// ObjStats, the hook call sequence and the sanitizer report; the
// memory is small, so allocations fail too. Recycled structs must
// occur.
func TestPooledObjectsMatchFresh(t *testing.T) {
	types := []kobj.Type{kobj.Dentry, kobj.SkBuff, kobj.Inode, kobj.Journal, kobj.PageCache, kobj.RxBuf}
	recycled, stale, failed := 0, 0, 0
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		got, want := newPoolSide(), newPoolSide()
		rng := sim.NewRNG(seed)
		var held [][2]*kobj.Object
		// freed holds freed objects whose pooled struct is still on the
		// free list: the only ones a stale use may name.
		var freed [][2]*kobj.Object
		for step := 0; step < 3000; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			now := sim.Time(step)
			gctx, wctx := &kstate.Ctx{Now: now}, &kstate.Ctx{Now: now}
			allocPct := 60
			if step/200%2 == 1 {
				allocPct = 25
			}
			switch r := rng.Intn(100); {
			case len(held) == 0 || r < allocPct:
				typ := types[rng.Intn(len(types))]
				ino := uint64(rng.Intn(4))
				var top *kobj.Object
				if n := len(got.a.free); n > 0 {
					top = got.a.free[n-1]
				}
				want.a.free = nil
				g, gerr := got.a.Alloc(gctx, typ, ino)
				w, werr := want.a.Alloc(wctx, typ, ino)
				if !errors.Is(gerr, werr) || gctx.Cost != wctx.Cost {
					t.Fatalf("%s: alloc %s ino %d: err %v cost %v, fresh %v %v", at, typ, ino, gerr, gctx.Cost, werr, wctx.Cost)
				}
				if gerr != nil {
					failed++
					break
				}
				if g == top {
					recycled++
					for i := range freed {
						if freed[i][0] == g {
							freed = append(freed[:i], freed[i+1:]...)
							break
						}
					}
				}
				held = append(held, [2]*kobj.Object{g, w})
			case r < allocPct+20:
				i := rng.Intn(len(held))
				got.a.Free(held[i][0], gctx)
				want.a.Free(held[i][1], wctx)
				freed = append(freed, held[i])
				held = append(held[:i], held[i+1:]...)
			case r < allocPct+30:
				i, bytes, write := rng.Intn(len(held)), rng.Intn(2*memsim.PageSize), rng.Intn(2) == 0
				got.a.Touch(gctx, held[i][0], bytes, write)
				want.a.Touch(wctx, held[i][1], bytes, write)
			case r < allocPct+37:
				i, dirty, prefetched := rng.Intn(len(held)), rng.Intn(2) == 0, rng.Intn(2) == 0
				for _, o := range held[i] {
					o.Dirty, o.Prefetched = dirty, prefetched
				}
			default:
				if len(freed) == 0 {
					break
				}
				stale++
				pair := freed[rng.Intn(len(freed))]
				got.a.Touch(gctx, pair[0], 0, false)
				want.a.Touch(wctx, pair[1], 0, false)
				if rng.Intn(2) == 0 {
					got.a.Free(pair[0], gctx)
					want.a.Free(pair[1], wctx)
				}
			}
			if gctx.Cost != wctx.Cost {
				t.Fatalf("%s: cost %v, fresh %v", at, gctx.Cost, wctx.Cost)
			}
			for i, pair := range held {
				if g, w := viewOf(pair[0]), viewOf(pair[1]); g != w {
					t.Fatalf("%s: held object %d reads %+v, fresh %+v", at, i, g, w)
				}
			}
			if *got.stats != *want.stats {
				t.Fatalf("%s: ObjStats %+v, fresh %+v", at, *got.stats, *want.stats)
			}
			if g, w := fmt.Sprint(got.hooks.calls), fmt.Sprint(want.hooks.calls); g != w {
				t.Fatalf("%s: hook calls %s, fresh %s", at, g, w)
			}
			got.hooks.calls, want.hooks.calls = got.hooks.calls[:0], want.hooks.calls[:0]
			var gheld, wheld []*kobj.Object
			for _, pair := range held {
				gheld, wheld = append(gheld, pair[0]), append(wheld, pair[1])
			}
			if g, w := got.report(gheld, now), want.report(wheld, now); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: sanitizer report\n%s\nfresh\n%s", at, g, w)
			}
		}
	}
	if recycled == 0 || stale == 0 || failed == 0 {
		t.Fatalf("%d recycled structs, %d stale uses, %d failed allocs; want each", recycled, stale, failed)
	}
	t.Logf("%d allocs reused a freed struct; %d stale uses; %d allocs failed", recycled, stale, failed)
}

// TestDoubleFreeKeepsOneStruct: freeing an object twice puts its
// struct on the free list once, so the next two Allocs get two
// distinct structs rather than one struct serving two live objects.
func TestDoubleFreeKeepsOneStruct(t *testing.T) {
	for _, c := range backings {
		a, ctx := warmObjects(t, c.kloc, c.typ, c.ino)
		a.free = nil
		o, err := a.Alloc(ctx, c.typ, c.ino)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(o, ctx)
		a.Free(o, ctx)
		if len(a.free) != 1 {
			t.Fatalf("%s: free list holds %d structs after a double free, want 1", c.name, len(a.free))
		}
		x, err := a.Alloc(ctx, c.typ, c.ino)
		if err != nil {
			t.Fatal(err)
		}
		y, err := a.Alloc(ctx, c.typ, c.ino)
		if err != nil {
			t.Fatal(err)
		}
		if x == y {
			t.Fatalf("%s: two live objects %d and %d share one struct", c.name, x.ID, y.ID)
		}
	}
}
