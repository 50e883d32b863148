package fs

import (
	"testing"

	"kloc/internal/alloc"
	"kloc/internal/blockdev"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/pressure"
	"kloc/internal/sim"
)

// accessHooks counts page accesses the FS reports without a frame.
type accessHooks struct {
	kstate.NopHooks
	nilAccesses int
}

func (h *accessHooks) PageAccessed(_ *kstate.Ctx, f *memsim.Frame) {
	if f == nil {
		h.nilAccesses++
	}
}

// newPressuredFS builds a standalone FS whose allocations reclaim
// through a pressure plane wired the way kernel.New wires it.
func newPressuredFS(mem *memsim.Memory, hooks kstate.Hooks) (*FS, *pressure.Plane) {
	var objIDs, inoGen kstate.IDGen
	f := New(mem, blockdev.NewMQ(blockdev.DefaultNVMe(), 1), hooks, &objIDs, &inoGen)
	plane := pressure.NewPlane(mem, memsim.FastNode)
	plane.Register(f.PageCacheShrinker())
	plane.Register(f.DentryShrinker())
	f.Objs.Pressure = plane
	return f, plane
}

// TestWriteKeepsFreshPageUnderReclaim: on a fast node too small for
// the file, a Write's journal-record allocation enters direct reclaim,
// which drops clean cached pages. The first pages are synced, so they
// are clean and reclaim drops them. The page being written is clean
// until the write completes, and it must not be one of them: a Write
// that succeeds leaves its page cached with a frame and never reports
// an access to a page without one, and a Write that fails leaves no
// page behind.
func TestWriteKeepsFreshPageUnderReclaim(t *testing.T) {
	h := &accessHooks{}
	// On 14 pages, the writes after the sync fill the node: reclaim
	// first drops the synced pages, and later writes fail once only
	// dirty pages are left.
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 14, SlowPages: 0, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	f, plane := newPressuredFS(mem, h)
	file, err := f.Create(ctxAt(0), "/f")
	if err != nil {
		t.Fatal(err)
	}
	const synced = 4
	failed := 0
	for i := int64(0); i < 16; i++ {
		at := ctxAt(sim.Time(i * int64(sim.Microsecond)))
		if i == synced {
			if err := f.Fsync(at, file); err != nil {
				t.Fatal(err)
			}
		}
		err := f.Write(at, file, i)
		p := file.Inode.pages.get(uint64(i))
		cached := p != nil
		if err != nil {
			failed++
			if cached {
				t.Fatalf("failed write of page %d left the page cached", i)
			}
		} else if !cached || p.Frame == nil {
			t.Fatalf("write of page %d succeeded but the page is not cached", i)
		}
		if h.nilAccesses != 0 {
			t.Fatalf("write of page %d reported an access to a page without a frame", i)
		}
		if live := f.Stats.ObjLive[kobj.PageCache]; live != int64(file.Inode.pages.Len()) {
			t.Fatalf("after page %d: %d live page-cache objects, %d cached pages", i, live, file.Inode.pages.Len())
		}
	}
	if failed == 0 || plane.Stats.DirectReclaimPages == 0 {
		t.Fatalf("%d writes ran out of memory, direct reclaim dropped %d pages: the path under test was not reached",
			failed, plane.Stats.DirectReclaimPages)
	}
}

// TestReadKeepsFreshPageUnderReclaim is the read-side twin: a Read miss
// allocates its page, then the extent mapping for a fresh extent, whose
// slab may need a frame of its own and enter direct reclaim. That
// reclaim drops clean cached pages, and the page being filled must not
// be among them: a Read that succeeds leaves its page cached with a
// frame and never reports an access to a page without one, and a Read
// that fails leaves no page behind.
func TestReadKeepsFreshPageUnderReclaim(t *testing.T) {
	h := &accessHooks{}
	// With 9 pages, the 43rd extent needs the extent slab's second frame
	// just after the page-cache allocation took the last free frame.
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 9, SlowPages: 0, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	f, plane := newPressuredFS(mem, h)
	file, err := f.Create(ctxAt(0), "/f")
	if err != nil {
		t.Fatal(err)
	}
	failedAfterAlloc := 0
	for i := int64(0); i < 64; i++ {
		idx := i * extentSpan // every read maps a fresh extent
		allocs := f.Stats.ObjAllocs[kobj.PageCache]
		err := f.Read(ctxAt(sim.Time(i*int64(sim.Microsecond))), file, idx)
		p := file.Inode.pages.get(uint64(idx))
		cached := p != nil
		if err != nil {
			if f.Stats.ObjAllocs[kobj.PageCache] > allocs {
				failedAfterAlloc++
			}
			if cached {
				t.Fatalf("failed read of page %d left the page cached", idx)
			}
		} else if !cached || p.Frame == nil {
			t.Fatalf("read of page %d succeeded but the page is not cached", idx)
		}
		if h.nilAccesses != 0 {
			t.Fatalf("read of page %d reported an access to a page without a frame", idx)
		}
		if live := f.Stats.ObjLive[kobj.PageCache]; live != int64(file.Inode.pages.Len()) {
			t.Fatalf("after page %d: %d live page-cache objects, %d cached pages", idx, live, file.Inode.pages.Len())
		}
	}
	if failedAfterAlloc == 0 || plane.Stats.DirectReclaimPages == 0 {
		t.Fatalf("%d reads failed after allocating their page, reclaim freed %d pages: the path under test was not reached",
			failedAfterAlloc, plane.Stats.DirectReclaimPages)
	}
}

// TestNestedWritebackKeepsItsOwnPages: Fsync of b enters writeback,
// whose first bio allocation is refused at the Min watermark. Direct
// reclaim runs under that allocation, finds no clean page, and writes
// back a, the older inode, in a writeback nested inside b's. The nested
// call must build its own page list: had it refilled b's, b's writeback
// would then submit a's pages and leave b's dirty.
func TestNestedWritebackKeepsItsOwnPages(t *testing.T) {
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 256, SlowPages: 0, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	var objIDs, inoGen kstate.IDGen
	f := New(mem, blockdev.NewMQ(blockdev.DefaultNVMe(), 1), kstate.NopHooks{}, &objIDs, &inoGen)
	plane := pressure.NewPlane(mem, memsim.FastNode)
	plane.Register(f.PageCacheShrinker())
	f.Objs.Pressure = plane

	const aPages, bPages = 96, 32
	write := func(path string, pages int64) *File {
		file, err := f.Create(ctxAt(0), path)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < pages; i++ {
			if err := f.Write(ctxAt(0), file, i); err != nil {
				t.Fatalf("%s page %d: %v", path, i, err)
			}
		}
		return file
	}
	a, b := write("/a", aPages), write("/b", bPages)
	// Fence off every free page as the reserve: only reclaim, which
	// runs in atomic context, may still allocate.
	free := mem.Node(memsim.FastNode).Free()
	if free < 2 {
		t.Fatalf("%d free pages: nested writeback needs one each for its bio and blk-mq slabs", free)
	}
	mem.Node(memsim.FastNode).SetWatermarks(memsim.Watermarks{Min: free + 1, Low: free + 2, High: free + 3})

	if err := f.Fsync(ctxAt(sim.Time(sim.Millisecond)), b); err != nil {
		t.Fatal(err)
	}
	if plane.Stats.DirectReclaims == 0 {
		t.Fatal("Fsync never entered direct reclaim: the nesting was not reached")
	}
	check := func(file *File, name string, cached int) {
		t.Helper()
		if n := file.Inode.pages.Len(); n != cached {
			t.Errorf("%s: %d pages cached, want %d", name, n, cached)
		}
		dirty := 0
		for _, e := range entries(&file.Inode.pages) {
			if e.marked {
				dirty++
			}
		}
		if dirty != 0 {
			t.Errorf("%s: %d pages still dirty", name, dirty)
		}
	}
	// Reclaim wants 64 pages: it drops a's first 64 once they are
	// clean, and stops before it reaches b.
	check(a, "a", aPages-64)
	check(b, "b", bPages)
	if got := f.Stats.WritebackPages; got != aPages+bPages {
		t.Errorf("%d pages written back, want %d", got, aPages+bPages)
	}
}

// TestReclaimSkipsInodeUnderWriteback: as above, but a holds fewer
// pages than reclaim's 64-page target, so the reclaim under b's first
// bio allocation goes on past a to b itself. b's dirty pages are under
// writeback (PG_writeback): reclaim must leave them to b's Fsync, which
// would otherwise write back, un-dirty and count page objects the
// nested pass already freed.
func TestReclaimSkipsInodeUnderWriteback(t *testing.T) {
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 256, SlowPages: 0, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	var objIDs, inoGen kstate.IDGen
	f := New(mem, blockdev.NewMQ(blockdev.DefaultNVMe(), 1), kstate.NopHooks{}, &objIDs, &inoGen)
	san := alloc.NewSanitizer()
	f.Objs.San = san
	plane := pressure.NewPlane(mem, memsim.FastNode)
	plane.Register(f.PageCacheShrinker())
	f.Objs.Pressure = plane

	const aPages, bPages = 32, 96
	var b *File
	for _, w := range []struct {
		path  string
		pages int64
	}{{"/a", aPages}, {"/b", bPages}} {
		file, err := f.Create(ctxAt(0), w.path)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < w.pages; i++ {
			if err := f.Write(ctxAt(0), file, i); err != nil {
				t.Fatalf("%s page %d: %v", w.path, i, err)
			}
		}
		b = file
	}
	free := mem.Node(memsim.FastNode).Free()
	mem.Node(memsim.FastNode).SetWatermarks(memsim.Watermarks{Min: free + 1, Low: free + 2, High: free + 3})

	if err := f.Fsync(ctxAt(sim.Time(sim.Millisecond)), b); err != nil {
		t.Fatal(err)
	}
	if plane.Stats.DirectReclaims == 0 {
		t.Fatal("Fsync never entered direct reclaim: the nesting was not reached")
	}
	if r := san.Report(sim.Time(sim.Millisecond)); r.TotalFindings != 0 {
		t.Errorf("sanitizer:\n%s", r)
	}
	if got := f.Stats.WritebackPages; got != aPages+bPages {
		t.Errorf("%d pages written back, want the %d dirty ones", got, aPages+bPages)
	}
	if n := b.Inode.pages.Len(); n != bPages {
		t.Errorf("b: %d pages cached, want %d", n, bPages)
	}
}
