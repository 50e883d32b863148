package fs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"kloc/internal/alloc"
	"kloc/internal/blockdev"
	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

type recordingHooks struct {
	kstate.NopHooks
	created, opened, closed, deleted []uint64
	objsCreated, objsFreed           int
	pagesAllocated, pagesFreed       int
	useKloc                          bool
}

func (h *recordingHooks) UseKlocAllocator(kobj.Type) bool { return h.useKloc }
func (h *recordingHooks) InodeCreated(_ *kstate.Ctx, ino uint64, _ bool) {
	h.created = append(h.created, ino)
}
func (h *recordingHooks) InodeOpened(_ *kstate.Ctx, ino uint64) { h.opened = append(h.opened, ino) }
func (h *recordingHooks) InodeClosed(_ *kstate.Ctx, ino uint64) { h.closed = append(h.closed, ino) }
func (h *recordingHooks) InodeDeleted(_ *kstate.Ctx, ino uint64) {
	h.deleted = append(h.deleted, ino)
}
func (h *recordingHooks) ObjectCreated(*kstate.Ctx, uint64, *kobj.Object) { h.objsCreated++ }
func (h *recordingHooks) ObjectFreed(*kstate.Ctx, *kobj.Object)           { h.objsFreed++ }
func (h *recordingHooks) PageAllocated(*kstate.Ctx, *memsim.Frame)        { h.pagesAllocated++ }
func (h *recordingHooks) PageFreed(*kstate.Ctx, *memsim.Frame)            { h.pagesFreed++ }

func newFS(t *testing.T, hooks kstate.Hooks) (*FS, *memsim.Memory) {
	t.Helper()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 512, SlowPages: 4096,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
	mq := blockdev.NewMQ(blockdev.DefaultNVMe(), 4)
	if hooks == nil {
		hooks = kstate.NopHooks{}
	}
	var objIDs, inoGen kstate.IDGen
	return New(mem, mq, hooks, &objIDs, &inoGen), mem
}

func ctxAt(now sim.Time) *kstate.Ctx { return &kstate.Ctx{CPU: 0, Now: now} }

// liveFrames counts m's live frames.
func liveFrames(m *memsim.Memory) int {
	n := 0
	m.EachLive(func(*memsim.Frame) { n++ })
	return n
}

func TestCreateAllocatesTableOneObjects(t *testing.T) {
	h := &recordingHooks{}
	f, _ := newFS(t, h)
	ctx := ctxAt(0)
	file, err := f.Create(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Cost <= 0 {
		t.Fatal("create was free")
	}
	if len(h.created) != 1 || len(h.opened) != 1 {
		t.Fatalf("hooks: created=%v opened=%v", h.created, h.opened)
	}
	// inode + dentry + journal record.
	if f.Stats.ObjAllocs[kobj.Inode] != 1 || f.Stats.ObjAllocs[kobj.Dentry] != 1 || f.Stats.ObjAllocs[kobj.Journal] != 1 {
		t.Fatalf("object allocs: %v", f.Stats.ObjAllocs)
	}
	if file.Inode.Path != "/a" || file.Inode.Refs != 1 {
		t.Fatalf("inode: %+v", file.Inode)
	}
	if f.Inodes() != 1 {
		t.Fatal("inode not registered")
	}
}

func TestCreateExistingOpens(t *testing.T) {
	f, _ := newFS(t, nil)
	f.Create(ctxAt(0), "/a")
	file, err := f.Create(ctxAt(1), "/a")
	if err != nil {
		t.Fatal(err)
	}
	if f.Inodes() != 1 {
		t.Fatal("duplicate inode created")
	}
	if file.Inode.Refs != 2 {
		t.Fatalf("refs = %d", file.Inode.Refs)
	}
}

func TestOpenMissingFails(t *testing.T) {
	f, _ := newFS(t, nil)
	if _, err := f.Open(ctxAt(0), "/missing"); !errors.Is(err, fault.ENOENT) {
		t.Fatalf("open of missing path: %v, want ENOENT", err)
	}
}

func TestWriteBuildsPageCacheAndJournal(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/db")
	for i := int64(0); i < 10; i++ {
		if err := f.Write(ctx, file, i); err != nil {
			t.Fatal(err)
		}
	}
	if file.Inode.pages.Len() != 10 {
		t.Fatalf("cached pages = %d", file.Inode.pages.Len())
	}
	if f.Stats.ObjAllocs[kobj.PageCache] != 10 {
		t.Fatalf("page cache allocs = %d", f.Stats.ObjAllocs[kobj.PageCache])
	}
	if f.Stats.ObjAllocs[kobj.Extent] == 0 || f.Stats.ObjAllocs[kobj.RadixNode] == 0 {
		t.Fatal("no extent/radix objects")
	}
	if f.JournalPending() == 0 {
		t.Fatal("no journal records pending")
	}
	if file.Inode.SizePages != 10 {
		t.Fatalf("size = %d", file.Inode.SizePages)
	}
	// Rewrite is a cache hit and does not grow the cache.
	f.Write(ctx, file, 3)
	if file.Inode.pages.Len() != 10 || f.Stats.CacheHits == 0 {
		t.Fatal("rewrite missed the cache")
	}
}

func TestReadHitVsMissCost(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/data")
	f.Write(ctx, file, 0)

	hit := ctxAt(10)
	if err := f.Read(hit, file, 0); err != nil {
		t.Fatal(err)
	}
	miss := ctxAt(sim.Time(1 * sim.Second)) // idle device
	if err := f.Read(miss, file, 40); err != nil {
		t.Fatal(err)
	}
	if hit.Cost >= miss.Cost {
		t.Fatalf("cache hit (%v) not cheaper than miss (%v)", hit.Cost, miss.Cost)
	}
	if f.Stats.CacheHits == 0 || f.Stats.CacheMisses == 0 {
		t.Fatalf("hit/miss stats: %+v", f.Stats)
	}
}

func TestSequentialReadahead(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/seq")
	// Sequential reads trigger prefetch after a streak of 2.
	for i := int64(0); i < 4; i++ {
		c := ctxAt(sim.Time(i) * sim.Time(sim.Millisecond))
		if err := f.Read(c, file, i); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats.ReadaheadIssued == 0 {
		t.Fatal("no readahead on a sequential streak")
	}
	// The prefetched page is already cached: this read is a hit.
	c := ctxAt(sim.Time(100 * sim.Millisecond))
	before := f.Stats.CacheMisses
	f.Read(c, file, 4)
	if f.Stats.CacheMisses != before {
		t.Fatal("prefetched page missed")
	}
}

func TestRandomReadsNoReadahead(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/rand")
	for _, idx := range []int64{10, 3, 77, 21, 50} {
		f.Read(ctxAt(ctx.Now), file, idx)
	}
	if f.Stats.ReadaheadIssued != 0 {
		t.Fatalf("readahead on random reads: %d", f.Stats.ReadaheadIssued)
	}
}

func TestReadaheadDisabled(t *testing.T) {
	f, _ := newFS(t, nil)
	f.ReadaheadWindow = 0
	file, _ := f.Create(ctxAt(0), "/x")
	for i := int64(0); i < 6; i++ {
		f.Read(ctxAt(0), file, i)
	}
	if f.Stats.ReadaheadIssued != 0 {
		t.Fatal("disabled readahead still issued")
	}
}

func TestFsyncCommitsJournalAndWritesBack(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/wal")
	for i := int64(0); i < 20; i++ {
		f.Write(ctx, file, i)
	}
	sync := ctxAt(sim.Time(10 * sim.Millisecond))
	if err := f.Fsync(sync, file); err != nil {
		t.Fatal(err)
	}
	if sync.Cost <= 0 {
		t.Fatal("fsync was free")
	}
	if f.JournalPending() != 0 {
		t.Fatal("journal not committed")
	}
	if f.Stats.WritebackPages != 20 {
		t.Fatalf("writeback pages = %d", f.Stats.WritebackPages)
	}
	// bios and blk_mq objects were allocated and freed.
	if f.Stats.ObjAllocs[kobj.Block] == 0 || f.Stats.ObjAllocs[kobj.BlkMQ] == 0 {
		t.Fatal("no block-layer objects")
	}
	if f.Stats.ObjLive[kobj.Block] != 0 || f.Stats.ObjLive[kobj.BlkMQ] != 0 {
		t.Fatal("block-layer objects leaked")
	}
	// Second fsync with nothing dirty is cheap.
	sync2 := ctxAt(sim.Time(20 * sim.Millisecond))
	f.Fsync(sync2, file)
	if sync2.Cost >= sync.Cost {
		t.Fatal("clean fsync as expensive as dirty fsync")
	}
}

func TestJournalAutoCommitAtLimit(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/j")
	for i := int64(0); i < int64(DefaultJournalMaxPending)+10; i++ {
		f.Write(ctx, file, i)
	}
	if f.Stats.JournalCommits == 0 {
		t.Fatal("journal never force-committed")
	}
	if f.JournalPending() >= DefaultJournalMaxPending {
		t.Fatalf("pending = %d", f.JournalPending())
	}
}

func TestCloseFiresInodeClosedAtZeroRefs(t *testing.T) {
	h := &recordingHooks{}
	f, _ := newFS(t, h)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/c")
	file2, _ := f.Open(ctx, "/c")
	f.Close(ctx, file)
	if len(h.closed) != 0 {
		t.Fatal("InodeClosed fired while refs remain")
	}
	f.Close(ctx, file2)
	if len(h.closed) != 1 {
		t.Fatal("InodeClosed not fired at zero refs")
	}
	// Page cache survives close — that is the whole point.
	if f.Inodes() != 1 {
		t.Fatal("inode destroyed on close")
	}
}

func TestUnlinkDeallocatesEverything(t *testing.T) {
	h := &recordingHooks{}
	f, mem := newFS(t, h)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/tmp")
	for i := int64(0); i < 8; i++ {
		f.Write(ctx, file, i)
	}
	f.Fsync(ctx, file)
	f.Close(ctx, file)
	if err := f.Unlink(ctx, "/tmp"); err != nil {
		t.Fatal(err)
	}
	f.SyncJournal(ctx) // flush the unlink's own journal record
	if f.Inodes() != 0 {
		t.Fatal("inode survived unlink")
	}
	if len(h.deleted) != 1 {
		t.Fatal("InodeDeleted not fired")
	}
	// All object classes drained.
	for typ := range f.Stats.ObjLive {
		if f.Stats.ObjLive[typ] != 0 {
			t.Fatalf("type %s leaked %d objects", kobj.Type(typ), f.Stats.ObjLive[typ])
		}
	}
	if liveFrames(mem) != 0 {
		t.Fatalf("%d frames leaked", liveFrames(mem))
	}
}

// inodeEventHooks records the order of inode close and delete hooks.
type inodeEventHooks struct {
	kstate.NopHooks
	events []string
}

func (h *inodeEventHooks) InodeClosed(_ *kstate.Ctx, ino uint64) {
	h.events = append(h.events, fmt.Sprintf("closed %d", ino))
}
func (h *inodeEventHooks) InodeDeleted(_ *kstate.Ctx, ino uint64) {
	h.events = append(h.events, fmt.Sprintf("deleted %d", ino))
}

// TestCloseDestroysUnlinkedInode pins unlink-while-open: the inode
// outlives its unlink while a file holds it, and the last close
// destroys it with every object it owned, after the close hook. A
// second close of the same file destroys nothing.
func TestCloseDestroysUnlinkedInode(t *testing.T) {
	h := &inodeEventHooks{}
	f, _ := newFS(t, h)
	san := alloc.NewSanitizer()
	f.Objs.San = san
	ctx := ctxAt(0)
	before := f.Stats.ObjLive
	file, err := f.Create(ctx, "/held")
	if err != nil {
		t.Fatal(err)
	}
	ino := file.Inode.Ino
	for i := int64(0); i < 4; i++ {
		if err := f.Write(ctx, file, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Unlink(ctx, "/held"); err != nil {
		t.Fatal(err)
	}
	if f.Inodes() != 1 || len(h.events) != 0 {
		t.Fatalf("unlink of an open file: %d inodes, hooks %v; want 1 and none", f.Inodes(), h.events)
	}
	if _, err := f.Open(ctxAt(1), "/held"); err == nil {
		t.Fatal("unlinked path still opens")
	}

	f.Close(ctxAt(2), file)
	if f.Inodes() != 0 {
		t.Fatalf("%d inodes after the last close of an unlinked file, want 0", f.Inodes())
	}
	for typ, was := range before {
		want := was
		if kobj.Type(typ) == kobj.Journal {
			want += int64(len(f.journalPending)) // records wait for the next commit
		}
		if got := f.Stats.ObjLive[typ]; got != want {
			t.Errorf("%s objects live: %d, want %d", kobj.Type(typ), got, want)
		}
	}
	if want := []string{fmt.Sprintf("closed %d", ino), fmt.Sprintf("deleted %d", ino)}; !slices.Equal(h.events, want) {
		t.Fatalf("hooks %v, want %v", h.events, want)
	}

	f.Close(ctxAt(3), file)
	if f.Inodes() != 0 || slices.Index(h.events[2:], fmt.Sprintf("deleted %d", ino)) >= 0 {
		t.Fatalf("second close: %d inodes, hooks %v", f.Inodes(), h.events)
	}
	if r := scanFS(f, san); !r.Clean() {
		t.Fatalf("sanitizer after a double close:\n%s", r)
	}
}

// TestRepeatCloseChangesNothing: closing a handle a second time counts
// no close, fires no hook, and leaves the references other handles
// hold on the inode alone.
func TestRepeatCloseChangesNothing(t *testing.T) {
	h := &inodeEventHooks{}
	f, _ := newFS(t, h)
	ctx := ctxAt(0)
	file, err := f.Create(ctx, "/once")
	if err != nil {
		t.Fatal(err)
	}
	ino := file.Inode.Ino
	if err := f.Unlink(ctx, "/once"); err != nil {
		t.Fatal(err)
	}
	f.Close(ctx, file)
	f.Close(ctx, file)
	if want := []string{fmt.Sprintf("closed %d", ino), fmt.Sprintf("deleted %d", ino)}; !slices.Equal(h.events, want) {
		t.Fatalf("create, unlink, close, close: hooks %v, want %v", h.events, want)
	}
	if f.Stats.Closes != 1 {
		t.Fatalf("Closes = %d after a repeat close, want 1", f.Stats.Closes)
	}

	h.events = nil
	a, err := f.Create(ctx, "/shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(ctx, "/shared"); err != nil {
		t.Fatal(err)
	}
	f.Close(ctx, a)
	f.Close(ctx, a)
	if a.Inode.Refs != 1 {
		t.Fatalf("refs = %d after closing handle A twice, want B's 1", a.Inode.Refs)
	}
	if len(h.events) != 0 {
		t.Fatalf("hooks %v while handle B is still open", h.events)
	}
}

func TestUnlinkMissing(t *testing.T) {
	f, _ := newFS(t, nil)
	if err := f.Unlink(ctxAt(0), "/nope"); !errors.Is(err, fault.ENOENT) {
		t.Fatalf("unlink of missing file: %v, want ENOENT", err)
	}
}

func TestEvictFrame(t *testing.T) {
	f, mem := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/evict")
	f.Write(ctx, file, 0) // dirty page
	frame := entries(&file.Inode.pages)[0].obj.Frame
	evictCtx := ctxAt(sim.Time(5 * sim.Millisecond))
	if !f.EvictFrame(evictCtx, frame) {
		t.Fatal("evict failed")
	}
	if evictCtx.Cost <= 0 {
		t.Fatal("dirty eviction without writeback cost")
	}
	if file.Inode.pages.Len() != 0 {
		t.Fatal("page survived eviction")
	}
	// Unknown frame.
	foreign, _ := mem.Alloc(memsim.FastNode, memsim.ClassApp, 0)
	if f.EvictFrame(ctxAt(0), foreign) {
		t.Fatal("evicted a frame the FS does not own")
	}
}

func TestDropCleanPages(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/drop")
	for i := int64(0); i < 10; i++ {
		f.Write(ctx, file, i)
	}
	f.Fsync(ctx, file) // all clean now
	dropped := f.DropCleanPages(ctx, file.Inode, 4)
	if dropped != 4 || file.Inode.pages.Len() != 6 {
		t.Fatalf("dropped=%d cached=%d", dropped, file.Inode.pages.Len())
	}
	// Dirty pages are not droppable.
	f.Write(ctx, file, 20)
	before := file.Inode.pages.Len()
	f.DropCleanPages(ctx, file.Inode, 100)
	if file.Inode.pages.Len() != before-(before-1) {
		// all clean pages dropped, dirty one remains
	}
	remaining := 0
	for _, e := range entries(&file.Inode.pages) {
		if e.marked {
			remaining++
		}
	}
	if remaining != 1 {
		t.Fatalf("dirty pages after drop: %d", remaining)
	}
}

func TestKlocAllocatorRouting(t *testing.T) {
	h := &recordingHooks{useKloc: true}
	f, _ := newFS(t, h)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/k")
	// Slab-class objects (inode, dentry) should be relocatable now.
	for _, o := range file.Inode.Objects() {
		if o.Type.Info().Alloc == kobj.AllocSlab {
			if o.Frame.Pinned {
				t.Fatalf("%s object pinned despite KLOC allocator", o.Type)
			}
			if o.Frame.Class != memsim.ClassKloc {
				t.Fatalf("%s frame class = %v", o.Type, o.Frame.Class)
			}
		}
	}
}

func TestDentryCacheHitPath(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/hot")
	f.Close(ctx, file)
	f.Open(ctxAt(1), "/hot")
	if f.Stats.DentryHits == 0 {
		t.Fatal("no dentry cache hit on reopen")
	}
}

func TestObjectsEnumeration(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/enum")
	f.Write(ctx, file, 0)
	objs := file.Inode.Objects()
	types := map[kobj.Type]int{}
	for _, o := range objs {
		types[o.Type]++
	}
	for _, want := range []kobj.Type{kobj.Inode, kobj.Dentry, kobj.PageCache, kobj.RadixNode, kobj.Extent} {
		if types[want] == 0 {
			t.Fatalf("missing %s in Objects()", want)
		}
	}
}

func TestMemoryPressurePropagates(t *testing.T) {
	// Tiny memory: writes must eventually fail with ErrNoMemory rather
	// than wedging.
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 8, SlowPages: 8, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	var objIDs, inoGen kstate.IDGen
	f := New(mem, blockdev.NewMQ(blockdev.DefaultNVMe(), 1), kstate.NopHooks{}, &objIDs, &inoGen)
	ctx := ctxAt(0)
	file, err := f.Create(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := int64(0); i < 64; i++ {
		if lastErr = f.Write(ctx, file, i); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("writes never hit memory pressure")
	}
}
