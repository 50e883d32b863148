package rbtree

import (
	"cmp"
	"sort"
	"testing"
	"testing/quick"

	"kloc/internal/sim"
)

func TestEmptyTree(t *testing.T) {
	tr := New[int, string]()
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree succeeded")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree reported success")
	}
	if d := tr.Depth(); d != 0 {
		t.Fatalf("empty depth %d", d)
	}
}

func TestSetGetDelete(t *testing.T) {
	tr := New[int, int]()
	for i := 0; i < 100; i++ {
		if !tr.Set(i, i*10) {
			t.Fatalf("Set(%d) reported replace", i)
		}
	}
	if tr.Set(50, 999) {
		t.Fatal("Set of existing key reported insert")
	}
	if v, ok := tr.Get(50); !ok || v != 999 {
		t.Fatalf("Get(50) = %d,%v", v, ok)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 100; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		_, ok := tr.Get(i)
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) presence = %v", i, ok)
		}
	}
	if msg := tr.Check(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := New[int, int]()
	r := sim.NewRNG(1)
	for i := 0; i < 500; i++ {
		tr.Set(r.Intn(10000), i)
	}
	var keys []int
	tr.Ascend(func(k, _ int) bool { keys = append(keys, k); return true })
	if !sort.IntsAreSorted(keys) {
		t.Fatal("Ascend out of order")
	}
	if len(keys) != tr.Len() {
		t.Fatalf("Ascend visited %d of %d", len(keys), tr.Len())
	}
	n := 0
	tr.Ascend(func(int, int) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int, int]()
	for i := 0; i < 100; i++ {
		tr.Set(i, i)
	}
	var got []int
	tr.AscendRange(25, 30, func(k, _ int) bool { got = append(got, k); return true })
	want := []int{25, 26, 27, 28, 29}
	if len(got) != len(want) {
		t.Fatalf("AscendRange got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange got %v, want %v", got, want)
		}
	}
	// Early stop inside a range.
	n := 0
	tr.AscendRange(0, 100, func(int, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("range early stop visited %d", n)
	}
}

func TestClear(t *testing.T) {
	tr := New[int, int]()
	for i := 0; i < 10; i++ {
		tr.Set(i, i)
	}
	tr.Clear()
	if _, ok := tr.Get(3); tr.Len() != 0 || ok {
		t.Fatal("Clear left entries behind")
	}
	tr.Set(1, 1)
	if tr.Len() != 1 {
		t.Fatal("tree unusable after Clear")
	}
}

func TestDepthLogarithmic(t *testing.T) {
	tr := New[int, int]()
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.Set(i, i) // worst case: sorted insertion
	}
	// 2*log2(n+1) = 30 for n=16384
	if d := tr.Depth(); d > 30 {
		t.Fatalf("depth %d exceeds red-black bound", d)
	}
	if msg := tr.Check(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

// TestInvariantsProperty drives random insert/delete mixes and verifies
// the red-black invariants and model equivalence against a map.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed uint64, ops uint16) bool {
		r := sim.NewRNG(seed)
		tr := New[int, int]()
		model := map[int]int{}
		n := int(ops)%500 + 50
		for i := 0; i < n; i++ {
			k := r.Intn(100)
			if r.Bool(0.6) {
				tr.Set(k, i)
				model[k] = i
			} else {
				okT := tr.Delete(k)
				_, okM := model[k]
				if okT != okM {
					return false
				}
				delete(model, k)
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return tr.Check() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refHeight is the reference for Depth: a full recursive walk that
// trusts no stored field.
func refHeight[K cmp.Ordered, V any](t *Tree[K, V], n *node[K, V]) int {
	if n == t.nil_ {
		return 0
	}
	return 1 + max(refHeight(t, n.left), refHeight(t, n.right))
}

// TestDepthMatchesWalkProperty drives seeded random Set/Delete/Clear
// sequences and, after every operation, compares the stored-height
// Depth with a full walk and re-checks every node's stored height.
func TestDepthMatchesWalkProperty(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRNG(seed)
		tr := New[int, int]()
		keySpace := 16 << r.Intn(6) // 16..512: shallow and deep trees
		for i := 0; i < 2000; i++ {
			op := "set"
			switch x := r.Float64(); {
			case x < 0.001:
				op = "clear"
				tr.Clear()
			case x < 0.45:
				op = "delete"
				tr.Delete(r.Intn(keySpace))
			default:
				tr.Set(r.Intn(keySpace), i)
			}
			if got, want := tr.Depth(), refHeight(tr, tr.root); got != want {
				t.Fatalf("seed %d op %d (%s): Depth %d, walk %d", seed, i, op, got, want)
			}
			if msg := tr.Check(); msg != "" {
				t.Fatalf("seed %d op %d (%s): %s", seed, i, op, msg)
			}
		}
	}
}

// TestDepthReadsStoredField: Depth is the root's stored height, read
// without a walk or an allocation.
func TestDepthReadsStoredField(t *testing.T) {
	tr := New[int, int]()
	for i := 0; i < 1000; i++ {
		tr.Set(i, i)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.Depth() }); allocs != 0 {
		t.Fatalf("Depth allocates %.1f per call", allocs)
	}
	stored := tr.root.height
	tr.root.height = 99
	got := tr.Depth()
	tr.root.height = stored
	if got != 99 {
		t.Fatalf("Depth = %d, want the stored root height 99: it walked the tree", got)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New[int, int]()
	r := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(r.Intn(1<<20), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int, int]()
	r := sim.NewRNG(1)
	for i := 0; i < 1<<16; i++ {
		tr.Set(r.Intn(1<<20), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(r.Intn(1 << 20))
	}
}
