package fs

import (
	"testing"

	"kloc/internal/alloc"
	"kloc/internal/blockdev"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
)

// scanFS runs the kmemleak-style teardown scan over the filesystem's
// roots alone (the kernel normally drives this across all subsystems).
func scanFS(f *FS, san *alloc.Sanitizer) *alloc.SanReport {
	san.BeginScan()
	f.MarkReachable(san)
	return san.Report(100)
}

func TestSanitizerCleanOnNormalLifecycle(t *testing.T) {
	f, _ := newFS(t, nil)
	san := alloc.NewSanitizer()
	f.Objs.San = san
	ctx := ctxAt(0)
	file, err := f.Create(ctx, "/clean")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := f.Write(ctx, file, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Read(ctx, file, 3); err != nil {
		t.Fatal(err)
	}
	f.Close(ctx, file)
	if r := scanFS(f, san); !r.Clean() {
		t.Fatalf("clean lifecycle reported dirty:\n%s", r)
	}
}

func TestSanitizerCatchesSeededDoubleFreeAndUAF(t *testing.T) {
	f, _ := newFS(t, nil)
	san := alloc.NewSanitizer()
	f.Objs.San = san
	file, err := f.Create(ctxAt(0), "/bug")
	if err != nil {
		t.Fatal(err)
	}
	ino := file.Inode.Ino
	var dentry *kobj.Object
	for _, o := range file.Inode.Objects() {
		if o.Type == kobj.Dentry {
			dentry = o
		}
	}
	if dentry == nil {
		t.Fatal("no dentry on fresh inode")
	}
	// The seeded bug: free the dentry out from under the inode, touch
	// it, then free it again.
	f.Objs.Free(dentry, ctxAt(10))
	f.Objs.Touch(ctxAt(20), dentry, 0, false)
	f.Objs.Free(dentry, ctxAt(30))

	r := scanFS(f, san)
	if r.TotalFindings != 2 {
		t.Fatalf("TotalFindings = %d, want 2:\n%s", r.TotalFindings, r)
	}
	uaf, df := r.Findings[0], r.Findings[1]
	if uaf.Kind != alloc.SanUseAfterFree || uaf.At != 20 || uaf.Freed != 10 {
		t.Fatalf("findings[0] = %+v, want use-after-free at 20", uaf)
	}
	if df.Kind != alloc.SanDoubleFree || df.At != 30 || df.Freed != 10 {
		t.Fatalf("findings[1] = %+v, want double-free at 30", df)
	}
	// Both findings carry the KLOC context the object belonged to.
	for _, fd := range r.Findings {
		if fd.Ctx != ino || fd.Class != "dentry" {
			t.Fatalf("finding %+v lacks KLOC context ino=%d class=dentry", fd, ino)
		}
	}
}

func TestSanitizerCatchesSeededLeakWithContext(t *testing.T) {
	f, _ := newFS(t, nil)
	san := alloc.NewSanitizer()
	f.Objs.San = san
	file, err := f.Create(ctxAt(0), "/leak")
	if err != nil {
		t.Fatal(err)
	}
	ino := file.Inode.Ino
	// The seeded bug: allocate an extent for the inode but drop it on
	// the floor — no inode reference, never freed.
	if _, err := f.Objs.Alloc(ctxAt(5), kobj.Extent, ino); err != nil {
		t.Fatal(err)
	}
	r := scanFS(f, san)
	if r.TotalLeaks != 1 {
		t.Fatalf("TotalLeaks = %d, want 1:\n%s", r.TotalLeaks, r)
	}
	leak := r.Leaks[0]
	if leak.Kind != alloc.SanLeak || leak.Ctx != ino || leak.Class != "extent" {
		t.Fatalf("leak = %+v, want extent leaked in KLOC ctx %d", leak, ino)
	}
	if len(r.LeakGroups) != 1 || r.LeakGroups[0].Ctx != ino || r.LeakGroups[0].Count != 1 {
		t.Fatalf("LeakGroups = %+v", r.LeakGroups)
	}
}

// blkMQOnEmptyNode places blk_mq requests on the slow node, which has
// no pages, and everything else on the fast node.
type blkMQOnEmptyNode struct{ kstate.NopHooks }

func (blkMQOnEmptyNode) PlaceKernel(_ *kstate.Ctx, t kobj.Type, _ uint64) []memsim.NodeID {
	if t == kobj.BlkMQ {
		return []memsim.NodeID{memsim.SlowNode}
	}
	return []memsim.NodeID{memsim.FastNode}
}

// TestWritebackFreesBioWhenBlkMQAllocFails: writeback allocates a bio
// and then a blk_mq request per run. When the second allocation fails,
// the bio must be freed, not leaked, both on the Fsync path and on the
// reclaim-driven writeback that the failure itself enters.
func TestWritebackFreesBioWhenBlkMQAllocFails(t *testing.T) {
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 512, SlowPages: 0, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	var objIDs, inoGen kstate.IDGen
	f := New(mem, blockdev.NewMQ(blockdev.DefaultNVMe(), 1), blkMQOnEmptyNode{}, &objIDs, &inoGen)
	san := alloc.NewSanitizer()
	f.Objs.San = san
	ctx := ctxAt(0)
	file, err := f.Create(ctx, "/wb")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(ctx, file, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(ctx, file); err == nil {
		t.Fatal("Fsync succeeded with no memory for its blk_mq request")
	}
	if f.Stats.ObjAllocs[kobj.Block] == 0 {
		t.Fatal("writeback never allocated a bio")
	}
	if live := f.Stats.ObjLive[kobj.Block]; live != 0 {
		t.Fatalf("%d bio objects leaked", live)
	}
	if r := scanFS(f, san); !r.Clean() {
		t.Fatalf("sanitizer:\n%s", r)
	}
}
