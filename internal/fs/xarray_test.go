package fs

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/sim"
)

// xaEntry is one entry of an xarray as a walk in index order sees it.
type xaEntry struct {
	idx    uint64
	obj    *kobj.Object
	marked bool
}

// entries lists x's entries in index order, each with its mark.
func entries(x *xarray) []xaEntry {
	var out []xaEntry
	for idx, o := x.find(0, xaAll); o != nil; idx, o = x.find(idx+1, xaAll) {
		out = append(out, xaEntry{idx, o, x.marked(idx)})
	}
	return out
}

// refEntry is the reference's entry: the object and its mark.
type refEntry struct {
	obj    *kobj.Object
	marked bool
}

// refIdx returns the reference's indexes in ascending order.
func refIdx(ref map[uint64]refEntry) []uint64 {
	out := make([]uint64, 0, len(ref))
	for idx := range ref {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refFind is find on the reference, given its indexes in ascending
// order: the first index at or after from that f selects.
func refFind(ref map[uint64]refEntry, keys []uint64, from uint64, f xaFilter) (uint64, *kobj.Object) {
	for _, idx := range keys[sort.Search(len(keys), func(i int) bool { return keys[i] >= from }):] {
		if e := ref[idx]; f == xaAll || (f == xaMarked) == e.marked {
			return idx, e.obj
		}
	}
	return 0, nil
}

// xaHeightFor is the height an index reaching max needs.
func xaHeightFor(max uint64) uint {
	h := uint(1)
	for max>>(xaShift*h) != 0 {
		h++
	}
	return h
}

// checkXarray compares x with its reference and checks its shape: the
// count, every entry with its mark in index order, the least height
// that reaches the largest index, slot bitmaps that match the slots,
// leaves without children and interior nodes without entries, no empty
// node, and dirty bitmaps that hold exactly the marked entries and the
// children with a mark below them. It returns the nodes it visited.
func checkXarray(x *xarray, ref map[uint64]refEntry) ([]*xaNode, string) {
	want := make([]xaEntry, 0, len(ref))
	for _, idx := range refIdx(ref) {
		want = append(want, xaEntry{idx, ref[idx].obj, ref[idx].marked})
	}
	if got := entries(x); !slices.Equal(got, want) {
		return nil, fmt.Sprintf("entries %v, reference %v", got, want)
	}
	if x.Len() != len(ref) {
		return nil, fmt.Sprintf("Len %d, reference %d", x.Len(), len(ref))
	}
	if len(ref) == 0 {
		if x.root != nil || x.height != 0 {
			return nil, fmt.Sprintf("empty array keeps a root %p of height %d", x.root, x.height)
		}
		return nil, ""
	}
	if h := xaHeightFor(want[len(want)-1].idx); x.height != h {
		return nil, fmt.Sprintf("height %d, the largest index %d needs %d", x.height, want[len(want)-1].idx, h)
	}
	var nodes []*xaNode
	var walk func(n *xaNode, lvl uint) string
	walk = func(n *xaNode, lvl uint) string {
		nodes = append(nodes, n)
		if n.used == 0 {
			return fmt.Sprintf("empty node on level %d", lvl)
		}
		if n.next != nil {
			return fmt.Sprintf("node on level %d is linked into the free list", lvl)
		}
		leaf := lvl == x.height-1
		var used, dirty uint64
		for i := 0; i < xaSlots; i++ {
			o, kid := n.objs[i], n.kids[i]
			switch {
			case leaf && kid != nil, !leaf && o != nil:
				return fmt.Sprintf("level %d slot %d holds the wrong kind of pointer", lvl, i)
			case o != nil:
				used |= 1 << i
			case kid != nil:
				used |= 1 << i
				if kid.dirty != 0 {
					dirty |= 1 << i
				}
				if msg := walk(kid, lvl+1); msg != "" {
					return msg
				}
			}
		}
		if leaf {
			dirty = n.dirty & used
		}
		if n.used != used || n.dirty != dirty {
			return fmt.Sprintf("level %d bitmaps used %x dirty %x, slots say %x %x", lvl, n.used, n.dirty, used, dirty)
		}
		return ""
	}
	return nodes, walk(x.root, 0)
}

// TestXarrayMatchesReference drives several xarrays on one free list
// and a sorted-map reference for each through one seeded random
// sequence of set, get, delete, mark, clear-mark, ascend-from (find
// under each filter) and clear, the last as the filesystem frees an
// index: every entry from some index on, in order. Indexes span four
// levels and more, up to 1<<62. Each array must match its reference
// and keep its shape, no node may sit in two arrays or in an array and
// on the free list, and every node on the free list must be zero: a
// recycled node carries no stale entry or mark.
func TestXarrayMatchesReference(t *testing.T) {
	objs := make([]*kobj.Object, 48)
	for i := range objs {
		objs[i] = &kobj.Object{ID: kobj.ID(i + 1)}
	}
	bases := []uint64{0, 60, xaSlots * xaSlots, 1 << 18, 1<<24 - 8, 1 << 40, 1<<62 - 100}
	var ops [7]int
	reused, tallest := 0, uint(0)
	const steps = 3000
	for _, seed := range []uint64{1, 2, 42} {
		rng := sim.NewRNG(seed)
		var l xaNodes
		xs := make([]xarray, 3)
		refs := make([]map[uint64]refEntry, len(xs))
		for i := range refs {
			refs[i] = map[uint64]refEntry{}
		}
		for step := 0; step < steps; step++ {
			a := rng.Intn(len(xs))
			x, ref := &xs[a], refs[a]
			// Most steps stay near one of a few bases, so nodes fill,
			// empty and recycle; some draw anywhere below 1<<62.
			idx := bases[rng.Intn(len(bases))] + uint64(rng.Intn(200))
			if rng.Intn(10) == 0 {
				idx = rng.Uint64() >> 2
			}
			op := rng.Intn(100)
			what := ""
			switch {
			case op < 35:
				what = fmt.Sprintf("set(%d)", idx)
				o := objs[rng.Intn(len(objs))]
				if l.free != nil {
					reused++
				}
				x.set(&l, idx, o)
				ref[idx] = refEntry{o, ref[idx].marked}
				ops[0]++
			case op < 45:
				what = fmt.Sprintf("get(%d)", idx)
				if got, want := x.get(idx), ref[idx].obj; got != want {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, what, got, want)
				}
				ops[1]++
			case op < 62:
				what = fmt.Sprintf("del(%d)", idx)
				if got, want := x.del(&l, idx), ref[idx].obj; got != want {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, what, got, want)
				}
				delete(ref, idx)
				ops[2]++
			case op < 75:
				// Mark an entry that exists most of the time.
				if keys := refIdx(ref); len(keys) > 0 && rng.Intn(4) != 0 {
					idx = keys[rng.Intn(len(keys))]
				}
				what = fmt.Sprintf("mark(%d)", idx)
				x.mark(idx)
				if e, ok := ref[idx]; ok {
					ref[idx] = refEntry{e.obj, true}
				}
				ops[3]++
			case op < 85:
				if keys := refIdx(ref); len(keys) > 0 && rng.Intn(4) != 0 {
					idx = keys[rng.Intn(len(keys))]
				}
				what = fmt.Sprintf("clearMark(%d)", idx)
				x.clearMark(idx)
				if e, ok := ref[idx]; ok {
					ref[idx] = refEntry{e.obj, false}
				}
				ops[4]++
			case op < 98:
				f := xaFilter(rng.Intn(3))
				what = fmt.Sprintf("ascend from %d under filter %d", idx, f)
				keys := refIdx(ref)
				for from, n := idx, 0; n < 70; n++ {
					gi, gobj := x.find(from, f)
					wi, wobj := refFind(ref, keys, from, f)
					if gi != wi || gobj != wobj {
						t.Fatalf("seed %d step %d: %s: find(%d) = %d %v, reference %d %v", seed, step, what, from, gi, gobj, wi, wobj)
					}
					if gobj == nil {
						break
					}
					from = gi + 1
				}
				ops[5]++
			default:
				if rng.Intn(2) == 0 {
					idx = 0
				}
				what = fmt.Sprintf("clear from %d", idx)
				for i, o := x.find(idx, xaAll); o != nil; i, o = x.find(i, xaAll) {
					if got := x.del(&l, i); got != o {
						t.Fatalf("seed %d step %d: %s: del(%d) = %v, find gave %v", seed, step, what, i, got, o)
					}
				}
				for i := range ref {
					if i >= idx {
						delete(ref, i)
					}
				}
				ops[6]++
			}
			// The array the step touched is checked every step, so a
			// recycled node shows any stale entry or mark as it is
			// taken; every array, node ownership and the free list
			// every eighth step and at the end.
			full := step%8 == 7 || step == steps-1
			owner := map[*xaNode]int{}
			for i := range xs {
				if i != a && !full {
					continue
				}
				nodes, msg := checkXarray(&xs[i], refs[i])
				if msg != "" {
					t.Fatalf("seed %d step %d (%s on array %d): array %d: %s", seed, step, what, a, i, msg)
				}
				for _, n := range nodes {
					if j, dup := owner[n]; dup {
						t.Fatalf("seed %d step %d (%s): a node of array %d is also in array %d", seed, step, what, i, j)
					}
					owner[n] = i
				}
				tallest = max(tallest, xs[i].height)
			}
			for n := l.free; full && n != nil; n = n.next {
				if _, dup := owner[n]; dup {
					t.Fatalf("seed %d step %d (%s): a node on the free list is in array %d", seed, step, what, owner[n])
				}
				if *n != (xaNode{next: n.next}) {
					t.Fatalf("seed %d step %d (%s): a node on the free list keeps used %x dirty %x or a slot", seed, step, what, n.used, n.dirty)
				}
			}
		}
	}
	for op, n := range ops {
		if n == 0 {
			t.Fatalf("op %d never ran: %v", op, ops)
		}
	}
	if reused == 0 || tallest < 4 {
		t.Fatalf("%d sets found a recycled node and the tallest array had %d levels; want both, and at least 4 levels", reused, tallest)
	}
	t.Logf("ops run: %v; %d sets found a recycled node; tallest array %d levels", ops, reused, tallest)
}
