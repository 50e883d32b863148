package kloc

import (
	"testing"

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

// TestHasMovableFrameMatchesMovableFrames builds random knodes, split
// and single-tree, from page-cache, KLOC-arena and pinned-slab objects
// on both nodes, with frames shared between objects and objects whose
// storage is already released. For node and class predicates it checks
// HasMovableFrame against the reference "some frame in MovableFrames
// satisfies pred", that pred never sees a nil or pinned frame, that
// pred is not called again after the first match, and that the check
// allocates nothing.
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
			kn, _, err := r.MapKnode(1, order, 0)
			if err != nil {
				t.Fatal(err)
			}
			var frames []*memsim.Frame
			objects := kobj.ID(rng.Intn(24))
			for id := kobj.ID(1); id <= objects; id++ {
				var f *memsim.Frame
				switch {
				case len(frames) > 0 && rng.Bool(0.25): // shared frame
					f = frames[rng.Intn(len(frames))]
				case rng.Bool(0.1): // storage already released
				default:
					f, err = m.Alloc(nodes[rng.Intn(len(nodes))], classes[rng.Intn(len(classes))], 0)
					if err != nil {
						t.Fatal(err)
					}
					f.Pinned = f.Class == memsim.ClassSlab && rng.Bool(0.7)
					frames = append(frames, f)
				}
				kn.AddObject(kobj.NewObject(id, types[rng.Intn(len(types))], f, 0, nil))
			}
			movable := kn.MovableFrames()
			for pi, pred := range preds {
				want := false
				for _, f := range movable {
					want = want || pred(f)
				}
				matched := false
				got := kn.HasMovableFrame(func(f *memsim.Frame) bool {
					if f == nil || f.Pinned {
						t.Fatalf("split=%v seed %d pred %d: pred called on a nil or pinned frame", split, seed, pi)
					}
					if matched {
						t.Fatalf("split=%v seed %d pred %d: pred called after the first match", split, seed, pi)
					}
					matched = pred(f)
					return matched
				})
				if got != want {
					t.Fatalf("split=%v seed %d pred %d: HasMovableFrame = %v, MovableFrames says %v", split, seed, pi, got, want)
				}
				if allocs := testing.AllocsPerRun(5, func() { kn.HasMovableFrame(pred) }); allocs != 0 {
					t.Fatalf("split=%v seed %d pred %d: HasMovableFrame allocates %.1f per call", split, seed, pi, allocs)
				}
			}
		}
	}
}
