package kloc

import (
	"testing"

	"kloc/internal/memsim"
)

// knodeIndex is the state of the knode-index loop: a registry of 512
// knodes and the index of the next event.
type knodeIndex struct {
	reg  *Registry
	ids  []KnodeID
	i    int
	hits int
}

func newKnodeIndex(t testing.TB) *knodeIndex {
	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(1024))
	x := &knodeIndex{reg: NewRegistry(mem, 4)}
	for j := 0; j < 512; j++ {
		kn, _, err := x.reg.MapKnode(uint64(j+1), order, 0)
		if err != nil {
			t.Fatal(err)
		}
		x.ids = append(x.ids, kn.ID)
	}
	return x
}

// step resolves one knode by ID, the lookup every page-access
// attribution makes, and refreshes its recency on every 16th event.
func (x *knodeIndex) step() {
	id := x.ids[x.i%len(x.ids)]
	if _, ok := x.reg.knodeByID(id); ok {
		x.hits++
	}
	if x.i&15 == 0 {
		x.reg.TouchID(id, x.i&3)
	}
	x.i++
}

// warm runs the loop four times over every knode, so the per-CPU lists
// hold everything the loop touches.
func (x *knodeIndex) warm() {
	for x.i < 4*len(x.ids) {
		x.step()
	}
}

// TestKnodeIndexIsAllocFree: once warm, resolving knodes by ID and
// refreshing their recency must not touch the heap — the ID index is a
// dense slice and a per-CPU fast-path hit moves the knode in place.
func TestKnodeIndexIsAllocFree(t *testing.T) {
	x := newKnodeIndex(t)
	x.warm()
	if avg := testing.AllocsPerRun(200, func() {
		for j := 0; j < 64; j++ {
			x.step()
		}
	}); avg != 0 {
		t.Fatalf("knode-index loop allocated %.2f objects per 64 events in steady state", avg)
	}
	if x.hits != x.i {
		t.Fatalf("knodeByID resolved %d of %d mapped IDs", x.hits, x.i)
	}
}

// BenchmarkKnodeIndex times the loop of TestKnodeIndexIsAllocFree, one
// event per op.
func BenchmarkKnodeIndex(b *testing.B) {
	x := newKnodeIndex(b)
	x.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.step()
	}
}
