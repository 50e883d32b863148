package kloc

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// TestIDIndexMatchesKmap churns knodes through MapKnode/Delete (inodes
// are re-mapped after deletion, so one inode owns several IDs over the
// run) and checks the dense ID index against the kmap and a plain
// inode -> ID reference map: knodeByID finds exactly the live knodes,
// each under its own ID, and TouchID refreshes a live knode but leaves
// a deleted one untouched.
func TestIDIndexMatchesKmap(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 4)
	rng := sim.NewRNG(7)
	live := map[uint64]KnodeID{} // reference: inode -> live knode ID
	issued := map[KnodeID]*Knode{}
	inodeOf := map[KnodeID]uint64{}
	var maxID KnodeID
	for step := 0; step < 3000; step++ {
		now := sim.Time(step)
		inode := uint64(1 + rng.Intn(64))
		if rng.Intn(3) == 0 {
			r.Delete(inode)
			delete(live, inode)
		} else {
			kn, _, err := r.MapKnode(inode, order, now)
			if err != nil {
				t.Fatal(err)
			}
			if id, ok := live[inode]; ok && kn.ID != id {
				t.Fatalf("step %d: re-map of live inode %d gave ID %d, want %d", step, inode, kn.ID, id)
			}
			live[inode] = kn.ID
			issued[kn.ID] = kn
			inodeOf[kn.ID] = inode
			if kn.ID > maxID {
				maxID = kn.ID
			}
		}
		if step%100 != 99 {
			continue
		}
		if r.Len() != len(live) {
			t.Fatalf("step %d: kmap holds %d knodes, reference %d", step, r.Len(), len(live))
		}
		for id := KnodeID(0); id <= maxID+2; id++ {
			got, ok := r.knodeByID(id)
			kn := issued[id]
			wantLive := kn != nil && live[inodeOf[id]] == id
			if ok != wantLive {
				t.Fatalf("step %d: knodeByID(%d) found=%v, reference live=%v", step, id, ok, wantLive)
			}
			if !ok {
				if kn != nil {
					kn.Age = 3
					r.TouchID(id, rng.Intn(4))
					if kn.Age != 3 {
						t.Fatalf("step %d: TouchID(%d) touched a deleted knode", step, id)
					}
				}
				continue
			}
			if got != kn {
				t.Fatalf("step %d: knodeByID(%d) returned the wrong knode", step, id)
			}
			if viaKmap, ok := r.Get(inodeOf[id]); !ok || viaKmap != got {
				t.Fatalf("step %d: ID %d resolves to inode %d, which the kmap maps elsewhere", step, id, inodeOf[id])
			}
			kn.Age = 3
			r.TouchID(id, rng.Intn(4))
			if kn.Age != 0 {
				t.Fatalf("step %d: TouchID(%d) did not refresh the knode", step, id)
			}
		}
	}
}

// movableFramesRef is the map-deduplicated walk that EachMovableFrame
// replaced: the distinct unpinned frames of kn's live objects, in tree
// order (rbtree-cache, then rbtree-slab).
func movableFramesRef(kn *Knode) []*memsim.Frame {
	seen := map[memsim.FrameID]bool{}
	var out []*memsim.Frame
	collect := func(id kobj.ID, o *kobj.Object) bool {
		if f := o.Frame; !recycled(id, o) && f != nil && !f.Pinned && !seen[f.ID] {
			seen[f.ID] = true
			out = append(out, f)
		}
		return true
	}
	kn.rbCache.Ascend(collect)
	kn.rbSlab.Ascend(collect)
	return out
}

// movableFrames lists the frames a full walk of kn visits.
func movableFrames(r *Registry, kn *Knode) []*memsim.Frame {
	var out []*memsim.Frame
	r.EachMovableFrame(kn, func(f *memsim.Frame) bool { out = append(out, f); return true })
	return out
}

// setWalkStamp moves m's walk-stamp counter to s, so a test reaches the
// counter's wrap without 2^32 walks.
func setWalkStamp(m *memsim.Memory, s uint32) {
	v := reflect.ValueOf(m).Elem().FieldByName("stamp")
	*(*uint32)(unsafe.Pointer(v.UnsafeAddr())) = s
}

// A knodeWalk is one walk of the differential test: a full walk, a walk
// that fn stops after stopAfter frames, or a predicate walk (the
// daemons' early-exit check) that stops at the first frame pred
// matches.
type knodeWalk struct {
	knode     int
	stopAfter int // > 0: stop after this many frames
	pred      int // >= 0: stop at the first frame preds[pred] matches
}

// TestHasMovableFrameMatchesMovableFrames checks the stamp-deduplicated
// walk, EachMovableFrame, against movableFramesRef, the map-based walk
// it replaced. Each seed builds four knodes, split or single-tree, from
// page-cache, KLOC-arena and pinned-slab objects on both nodes. The
// knodes share frames with each other and their own objects share
// frames too; some objects' storage is already released, and some tree
// entries outlive their object's struct, which a later object reuses.
// A seeded sequence of walks over random knodes then runs twice:
// - every walk visits exactly the reference's frames, in its order, up
// to where it stops, and reports whether fn stopped it;
// - between the two runs the stamp counter is moved to the end of its
// range, so the second run wraps it. A stamp left on a frame from the
// first run would then hide that frame from the replayed walk that
// reuses its value.
// The walk allocates nothing.
func TestHasMovableFrameMatchesMovableFrames(t *testing.T) {
	nodes := []memsim.NodeID{memsim.FastNode, memsim.SlowNode}
	classes := []memsim.Class{memsim.ClassCache, memsim.ClassKloc, memsim.ClassSlab}
	types := []kobj.Type{kobj.PageCache, kobj.RxBuf, kobj.Dentry, kobj.Extent, kobj.SkBuff}
	var preds []func(*memsim.Frame) bool
	for _, n := range nodes {
		preds = append(preds, func(f *memsim.Frame) bool { return f.Node == n })
	}
	for _, c := range classes {
		preds = append(preds, func(f *memsim.Frame) bool { return f.Class == c })
		for _, n := range nodes {
			preds = append(preds, func(f *memsim.Frame) bool { return f.Class == c && f.Node == n })
		}
	}
	for _, split := range []bool{true, false} {
		for seed := uint64(1); seed <= 60; seed++ {
			rng := sim.NewRNG(seed)
			m := testMem()
			r := NewRegistry(m, 2)
			r.SplitTrees = split
			var kns []*Knode
			for ino := uint64(1); ino <= 4; ino++ {
				kn, _, err := r.MapKnode(ino, order, 0)
				if err != nil {
					t.Fatal(err)
				}
				kns = append(kns, kn)
			}
			var frames []*memsim.Frame
			objects := kobj.ID(rng.Intn(64))
			for id := kobj.ID(1); id <= objects; id++ {
				var f *memsim.Frame
				switch {
				case len(frames) > 0 && rng.Bool(0.3): // shared frame
					f = frames[rng.Intn(len(frames))]
				case rng.Bool(0.1): // storage already released
				default:
					var err error
					f, err = m.Alloc(nodes[rng.Intn(len(nodes))], classes[rng.Intn(len(classes))], 0)
					if err != nil {
						t.Fatal(err)
					}
					f.Pinned = f.Class == memsim.ClassSlab && rng.Bool(0.7)
					frames = append(frames, f)
				}
				o := kobj.NewObject(id, types[rng.Intn(len(types))], f, 0, nil)
				kns[rng.Intn(len(kns))].AddObject(o)
				if rng.Bool(0.05) { // the struct now serves a later object
					o.Reset(1000+id, o.Type, f, 0, nil)
				}
			}
			walks := make([]knodeWalk, 16)
			for i := range walks {
				w := knodeWalk{knode: rng.Intn(len(kns)), pred: -1}
				switch rng.Intn(3) {
				case 1:
					w.stopAfter = 1 + rng.Intn(8)
				case 2:
					w.pred = rng.Intn(len(preds))
				}
				walks[i] = w
			}
			check := func(run, i int, w knodeWalk) {
				kn := kns[w.knode]
				want := movableFramesRef(kn)
				wantStop := false
				switch {
				case w.stopAfter > 0 && w.stopAfter <= len(want):
					want, wantStop = want[:w.stopAfter], true
				case w.pred >= 0:
					for j, f := range want {
						if preds[w.pred](f) {
							want, wantStop = want[:j+1], true
							break
						}
					}
				}
				var got []*memsim.Frame
				stopped := r.EachMovableFrame(kn, func(f *memsim.Frame) bool {
					got = append(got, f)
					switch {
					case w.stopAfter > 0:
						return len(got) < w.stopAfter
					case w.pred >= 0:
						return !preds[w.pred](f)
					}
					return true
				})
				if stopped != wantStop || len(got) != len(want) {
					t.Fatalf("split=%v seed %d run %d walk %d %+v: visited %d frames (stopped %v), reference %d (stopped %v)",
						split, seed, run, i, w, len(got), stopped, len(want), wantStop)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("split=%v seed %d run %d walk %d %+v: frame %d is %d, reference %d",
							split, seed, run, i, w, j, got[j].ID, want[j].ID)
					}
				}
			}
			for i, w := range walks {
				check(0, i, w)
			}
			setWalkStamp(m, math.MaxUint32-1)
			check(1, -1, knodeWalk{knode: rng.Intn(len(kns)), pred: -1}) // the last stamp before the wrap
			for i, w := range walks {
				check(1, i, w)
			}
			kn, pred := kns[rng.Intn(len(kns))], preds[rng.Intn(len(preds))]
			if allocs := testing.AllocsPerRun(5, func() {
				r.EachMovableFrame(kn, func(f *memsim.Frame) bool { return !pred(f) })
			}); allocs != 0 {
				t.Fatalf("split=%v seed %d: a walk allocates %.1f per call", split, seed, allocs)
			}
		}
	}
}
