package rbtree

import (
	"fmt"
	"slices"
	"testing"

	"kloc/internal/sim"
)

// freshTree is the reference for a pooled tree: Set and Delete as they
// were before trees had pools, kept only for TestPooledTreesMatchFresh.
// Set allocates a new node and Delete unlinks its node and leaves it to
// the collector, so neither touches a pool. Reads go through the embedded Tree,
// whose read paths pools did not change.
type freshTree struct{ *Tree[int, int] }

func (f freshTree) Set(key, value int) bool {
	t := f.Tree
	parent := t.nil_
	n := t.root
	for n != t.nil_ {
		parent = n
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			n.value = value
			return false
		}
	}
	fresh := &node[int, int]{key: key, value: value, left: t.nil_, right: t.nil_, parent: parent, color: red}
	switch {
	case parent == t.nil_:
		t.root = fresh
	case key < parent.key:
		parent.left = fresh
	default:
		parent.right = fresh
	}
	t.size++
	t.fixHeights(fresh)
	t.insertFixup(fresh)
	return true
}

func (f freshTree) Delete(key int) bool {
	t := f.Tree
	z := t.lookup(key)
	if z == t.nil_ {
		return false
	}
	t.deleteNode(z)
	t.size--
	return true
}

// sameTree compares every observable of a pooled tree with its
// reference: the invariants of both, size, entries in order, Get of a
// probe, and Depth.
func sameTree(got *Tree[int, int], want freshTree, probe int) string {
	if msg := got.Check(); msg != "" {
		return "invariant violated: " + msg
	}
	if msg := want.Check(); msg != "" {
		return "reference invariant violated: " + msg
	}
	if got.Len() != want.Len() || got.Depth() != want.Depth() {
		return fmt.Sprintf("len/depth %d/%d, reference %d/%d", got.Len(), got.Depth(), want.Len(), want.Depth())
	}
	if g, w := entries(got), entries(want.Tree); !slices.Equal(g, w) {
		return fmt.Sprintf("entries %v, reference %v", g, w)
	}
	gv, gok := got.Get(probe)
	wv, wok := want.Get(probe)
	if gv != wv || gok != wok {
		return fmt.Sprintf("Get(%d) = %d, %v, reference %d, %v", probe, gv, gok, wv, wok)
	}
	return ""
}

func entries(t *Tree[int, int]) [][2]int {
	var out [][2]int
	t.Ascend(func(k, v int) bool {
		out = append(out, [2]int{k, v})
		return true
	})
	return out
}

// TestPooledTreesMatchFresh drives several trees on one pool and their
// fresh-allocation references through the same random Set and Delete
// steps, some of which empty a tree, so nodes one tree frees are reused
// by the others, and compares every tree after every step.
func TestPooledTreesMatchFresh(t *testing.T) {
	const trees, keys = 4, 96
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		r := sim.NewRNG(seed)
		pool := new(Pool[int, int])
		got := make([]*Tree[int, int], trees)
		want := make([]freshTree, trees)
		for i := range got {
			got[i] = pool.New()
			want[i] = freshTree{New[int, int]()}
		}
		reused := 0
		for step := 0; step < 5000; step++ {
			i, k := r.Intn(trees), r.Intn(keys)
			var what string
			switch op := r.Intn(100); {
			case op < 55:
				what = fmt.Sprintf("Set(%d, %d)", k, step)
				if pool.free != nil {
					reused++
				}
				if g, w := got[i].Set(k, step), want[i].Set(k, step); g != w {
					t.Fatalf("seed %d step %d tree %d: %s = %v, reference %v", seed, step, i, what, g, w)
				}
			case op < 98:
				what = fmt.Sprintf("Delete(%d)", k)
				if g, w := got[i].Delete(k), want[i].Delete(k); g != w {
					t.Fatalf("seed %d step %d tree %d: %s = %v, reference %v", seed, step, i, what, g, w)
				}
			default:
				what = "empty"
				for _, k := range keysOf(got[i]) {
					got[i].Delete(k)
					want[i].Delete(k)
				}
			}
			for j := range got {
				if msg := sameTree(got[j], want[j], r.Intn(keys+2)-1); msg != "" {
					t.Fatalf("seed %d step %d (%s on tree %d): tree %d: %s", seed, step, what, i, j, msg)
				}
			}
		}
		if reused == 0 {
			t.Fatalf("seed %d: no Set reused a pooled node", seed)
		}
	}
}

// TestPooledNodesHoldNothing: a node on the pool keeps no key, value or
// link of its last use alive.
func TestPooledNodesHoldNothing(t *testing.T) {
	pool := new(Pool[int, *int])
	tr := pool.New()
	for i := 0; i < 8; i++ {
		v := i
		tr.Set(i, &v)
	}
	for _, k := range keysOf(tr) {
		tr.Delete(k)
	}
	n := 0
	for nd := pool.free; nd != nil; nd = nd.parent {
		if nd.value != nil || nd.key != 0 || nd.left != nil || nd.right != nil {
			t.Fatalf("pooled node still holds key %d, value %v, links %p/%p", nd.key, nd.value, nd.left, nd.right)
		}
		n++
	}
	if n != 8 {
		t.Fatalf("pool holds %d nodes, want 8", n)
	}
}

// movePair moves key k from a to b and back: two Deletes and two Sets
// across two trees on one pool.
func movePair(a, b *Tree[int, int], k int) {
	a.Delete(k)
	b.Set(k, k)
	b.Delete(k)
	a.Set(k, k)
}

// TestPooledSetDeleteIsAllocFree is the hot-path gate: once the pool
// holds a node, Set and Delete across trees sharing it allocate
// nothing.
func TestPooledSetDeleteIsAllocFree(t *testing.T) {
	pool := new(Pool[int, int])
	a, b := pool.New(), pool.New()
	for k := 0; k < 64; k++ {
		a.Set(k, k)
	}
	k := 0
	if n := testing.AllocsPerRun(1000, func() {
		movePair(a, b, k)
		k = (k + 7) % 64
	}); n != 0 {
		t.Fatalf("pooled Set/Delete allocates %v per op", n)
	}
}

// BenchmarkPooledSetDelete times the gate's loop; one op is one
// movePair, two Sets and two Deletes.
func BenchmarkPooledSetDelete(b *testing.B) {
	pool := new(Pool[int, int])
	x, y := pool.New(), pool.New()
	for k := 0; k < 1024; k++ {
		x.Set(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		movePair(x, y, (i*7)%1024)
	}
}
