package kloc

import (
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

func testMem() *memsim.Memory {
	return memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 256, SlowPages: 1024,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
}

var order = []memsim.NodeID{memsim.FastNode, memsim.SlowNode}

func obj(m *memsim.Memory, id kobj.ID, t kobj.Type, pinned bool) *kobj.Object {
	class := memsim.ClassCache
	if t.Info().Alloc == kobj.AllocSlab {
		class = memsim.ClassSlab
	}
	f, err := m.Alloc(memsim.FastNode, class, 0)
	if err != nil {
		panic(err)
	}
	f.Pinned = pinned
	return kobj.NewObject(id, t, f, 0, nil)
}

func TestMapKnodeLifecycle(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 4)
	kn, cost, err := r.MapKnode(42, order, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("knode creation was free")
	}
	if got, ok := r.Get(42); !kn.Active || !ok || got != kn {
		t.Fatalf("knode state: %+v", kn)
	}
	if r.Len() != 1 {
		t.Fatal("registry accounting wrong")
	}
	// Mapping the same inode returns the existing knode.
	kn2, _, err := r.MapKnode(42, order, 200)
	if err != nil || kn2 != kn {
		t.Fatal("re-map created a duplicate knode")
	}
	if r.Len() != 1 {
		t.Fatal("duplicate in kmap")
	}
	r.Delete(42)
	if r.Len() != 0 {
		t.Fatal("delete accounting wrong")
	}
	if _, ok := r.Get(42); ok {
		t.Fatal("deleted knode still in kmap")
	}
	if d := r.Delete(42); d != 0 {
		t.Fatal("double delete did work")
	}
}

func TestKnodeSlabStorageIsMetaAndReclaimed(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	kn, _, _ := r.MapKnode(1, order, 0)
	if kn.frame.Class != memsim.ClassMeta {
		t.Fatalf("knode frame class = %v", kn.frame.Class)
	}
	used := m.Node(memsim.FastNode).Used()
	if used == 0 {
		t.Fatal("knode consumed no memory")
	}
	r.Delete(1)
	if m.Node(memsim.FastNode).Used() != 0 {
		t.Fatal("knode storage leaked")
	}
}

func TestObjectIndexingSplitTrees(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	kn, _, _ := r.MapKnode(7, order, 0)
	dentry := obj(m, 1, kobj.Dentry, true)
	page := obj(m, 2, kobj.PageCache, false)
	r.AddObject(0, 7, dentry)
	r.AddObject(0, 7, page)
	c, s := kn.rbCache.Len(), kn.rbSlab.Len()
	if c != 1 || s != 1 {
		t.Fatalf("tree split wrong: cache=%d slab=%d", c, s)
	}
	if dentry.Knode != uint64(kn.ID) || page.Knode != uint64(kn.ID) {
		t.Fatal("objects not stamped with knode")
	}
	var slabSeen, cacheSeen int
	kn.IterSlab(func(o *kobj.Object) bool { slabSeen++; return true })
	kn.IterCache(func(o *kobj.Object) bool { cacheSeen++; return true })
	if slabSeen != 1 || cacheSeen != 1 {
		t.Fatalf("iteration: slab=%d cache=%d", slabSeen, cacheSeen)
	}
	r.RemoveObject(dentry)
	if kn.rbSlab.Len() != 0 {
		t.Fatal("remove failed")
	}
	if dentry.Knode != 0 {
		t.Fatal("knode stamp not cleared")
	}
	// Removing an unassociated object is a no-op.
	if d := r.RemoveObject(dentry); d != 0 {
		t.Fatal("double remove did work")
	}
}

func TestSingleTreeAblation(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	r.SplitTrees = false
	kn, _, _ := r.MapKnode(7, order, 0)
	r.AddObject(0, 7, obj(m, 1, kobj.Dentry, true))
	r.AddObject(0, 7, obj(m, 2, kobj.PageCache, false))
	c, s := kn.rbCache.Len(), kn.rbSlab.Len()
	if c != 2 || s != 2 {
		t.Fatalf("single-tree mode should share: cache=%d slab=%d", c, s)
	}
}

func TestAddObjectWithoutKnode(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	o := obj(m, 1, kobj.Dentry, true)
	r.AddObject(0, 999, o) // no knode mapped: silently skipped
	if o.Knode != 0 {
		t.Fatal("orphan object got a knode")
	}
}

func TestMovableFramesExcludesPinnedAndDedups(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	kn, _, _ := r.MapKnode(7, order, 0)
	pinned := obj(m, 1, kobj.Dentry, true)
	movable := obj(m, 2, kobj.PageCache, false)
	// Two objects sharing one frame must dedup.
	shared := kobj.NewObject(3, kobj.Extent, movable.Frame, 0, nil)
	r.AddObject(0, 7, pinned)
	r.AddObject(0, 7, movable)
	r.AddObject(0, 7, shared)
	frames := kn.MovableFrames()
	if len(frames) != 1 || frames[0].ID != movable.Frame.ID {
		t.Fatalf("movable frames = %v", frames)
	}
}

func TestActivateDeactivateAndCold(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	kn1, _, _ := r.MapKnode(1, order, 0)
	kn2, _, _ := r.MapKnode(2, order, 0)
	kn, ok := r.Deactivate(1)
	if !ok || kn != kn1 || kn.Active {
		t.Fatal("deactivate failed")
	}
	cold := r.ColdKnodes(100)
	if len(cold) != 1 || cold[0] != kn1 {
		t.Fatalf("cold knodes = %d", len(cold))
	}
	active := r.ActiveKnodes()
	if len(active) != 1 || active[0] != kn2 {
		t.Fatalf("active knodes = %d", len(active))
	}
	// Aging makes active knodes cold too.
	for i := 0; i < 3; i++ {
		r.AgeScan()
	}
	cold = r.ColdKnodes(3)
	if len(cold) != 2 {
		t.Fatalf("after aging, cold = %d", len(cold))
	}
	// Reactivation resets age.
	if kn, ok := r.Activate(0, 2); !ok || kn != kn2 || !kn.Active || kn.Age != 0 {
		t.Fatal("activate failed to reset age")
	}
	if _, ok := r.Deactivate(99); ok {
		t.Fatal("deactivate of unknown inode succeeded")
	}
	if _, ok := r.Activate(0, 99); ok {
		t.Fatal("activate of unknown inode succeeded")
	}
}

func TestLookupFastPath(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	r.MapKnode(5, order, 0)
	_, coldCost, ok := r.Lookup(0, 5)
	if !ok {
		t.Fatal("lookup failed")
	}
	_, warmCost, _ := r.Lookup(0, 5)
	if warmCost >= coldCost && r.kmap.Depth() > 2 {
		t.Fatalf("fast-path hit (%v) not cheaper than miss (%v)", warmCost, coldCost)
	}
	if rate := r.FastPathHitRate(); rate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5 (one miss, one hit)", rate)
	}
	// Unknown inode.
	_, _, ok = r.Lookup(0, 999)
	if ok {
		t.Fatal("lookup of unknown inode succeeded")
	}
	// Disabled fast path still works.
	r.FastPathEnabled = false
	if _, _, ok := r.Lookup(1, 5); !ok {
		t.Fatal("slow-path lookup failed")
	}
}

func TestFindCPU(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 4)
	kn, _, _ := r.MapKnode(5, order, 0)
	if cpu := r.FindCPU(kn); cpu != -1 {
		t.Fatalf("untouched knode has CPU %d", cpu)
	}
	r.Lookup(2, 5)
	if cpu := r.FindCPU(kn); cpu != 2 {
		t.Fatalf("FindCPU = %d, want 2", cpu)
	}
	r.Delete(5)
	if cpu := r.FindCPU(kn); cpu != -1 {
		t.Fatal("deleted knode still on per-CPU lists")
	}
}

func TestMetadataBytesTable6(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	if r.MetadataBytes() != 0 {
		t.Fatal("empty registry has metadata")
	}
	r.MapKnode(1, order, 0)
	base := r.MetadataBytes()
	if base < knodeStructBytes {
		t.Fatalf("metadata %d below knode size", base)
	}
	for i := 0; i < 10; i++ {
		r.AddObject(0, 1, obj(m, kobj.ID(i+1), kobj.PageCache, false))
	}
	withObjs := r.MetadataBytes()
	// AddObject's lookup put the knode on one per-CPU list.
	want := base + 10*objPointerBytes + percpuEntryBytes
	if withObjs != want {
		t.Fatalf("metadata with 10 objects = %d, want %d", withObjs, want)
	}
	r.SetMigrationListLen(100)
	if r.MetadataBytes() != withObjs+100*objPointerBytes {
		t.Fatal("migration list not accounted")
	}
}

func TestMapKnodeAllocFailure(t *testing.T) {
	m := memsim.NewTwoTier(memsim.TwoTierConfig{FastPages: 0, SlowPages: 0, FastBandwidth: 30, CPUs: 1})
	r := NewRegistry(m, 1)
	if _, _, err := r.MapKnode(1, order, 0); err == nil {
		t.Fatal("knode allocation on full memory succeeded")
	}
}

func TestAgeScanCost(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 2)
	for i := uint64(1); i <= 5; i++ {
		r.MapKnode(i, order, 0)
	}
	if cost := r.AgeScan(); cost <= 0 {
		t.Fatal("age scan was free")
	}
	for _, kn := range r.ColdKnodes(0) {
		_ = kn
	}
	// All 5 knodes aged once.
	aged := 0
	r.kmap.Ascend(func(_ uint64, kn *Knode) bool {
		if kn.Age == 1 {
			aged++
		}
		return true
	})
	if aged != 5 {
		t.Fatalf("aged %d of 5", aged)
	}
}

func TestLookupTimestamp(t *testing.T) {
	m := testMem()
	r := NewRegistry(m, 1)
	kn, _, _ := r.MapKnode(3, order, sim.Time(5))
	r.AgeScan()
	if kn.Age != 1 {
		t.Fatal("age scan missed knode")
	}
	r.Lookup(0, 3)
	if kn.Age != 0 {
		t.Fatalf("lookup did not refresh: age=%d", kn.Age)
	}
}
