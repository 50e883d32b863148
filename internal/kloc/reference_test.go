package kloc

import (
	"testing"

	"kloc/internal/sim"
)

// TestIDIndexMatchesKmap churns knodes through MapKnode/Delete (inodes
// are re-mapped after deletion, so one inode owns several IDs over the
// run) and checks the dense ID index against the kmap and a plain
// inode -> ID reference map: GetByID finds exactly the live knodes,
// each under its own ID, and TouchID refreshes a live knode but leaves
// a deleted one untouched.
func TestIDIndexMatchesKmap(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 4)
	rng := sim.NewRNG(7)
	live := map[uint64]KnodeID{} // reference: inode -> live knode ID
	issued := map[KnodeID]*Knode{}
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
			got, ok := r.GetByID(id)
			kn := issued[id]
			wantLive := kn != nil && live[kn.Inode] == id
			if ok != wantLive {
				t.Fatalf("step %d: GetByID(%d) found=%v, reference live=%v", step, id, ok, wantLive)
			}
			if !ok {
				if kn != nil {
					before := kn.LastTouch
					r.TouchID(id, rng.Intn(4), now+1)
					if kn.LastTouch != before {
						t.Fatalf("step %d: TouchID(%d) touched a deleted knode", step, id)
					}
				}
				continue
			}
			if got != kn {
				t.Fatalf("step %d: GetByID(%d) returned the wrong knode", step, id)
			}
			if viaKmap, ok := r.Get(kn.Inode); !ok || viaKmap != got {
				t.Fatalf("step %d: ID %d resolves to inode %d, which the kmap maps elsewhere", step, id, kn.Inode)
			}
			kn.Age = 3
			r.TouchID(id, rng.Intn(4), now+1)
			if kn.Age != 0 || kn.LastTouch != now+1 {
				t.Fatalf("step %d: TouchID(%d) did not refresh the knode", step, id)
			}
		}
	}
}
