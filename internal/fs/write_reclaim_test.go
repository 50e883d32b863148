package fs

import (
	"testing"

	"kloc/internal/blockdev"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
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

// TestWriteKeepsFreshPageUnderReclaim: on a fast node too small for
// the file, a Write's journal-record allocation enters direct reclaim,
// which drops clean cached pages. The page being written is clean until
// the write completes, and it must not be one of them: a Write that
// succeeds leaves its page cached with a frame and never reports an
// access to a page without one, and a Write that fails leaves no page
// behind.
func TestWriteKeepsFreshPageUnderReclaim(t *testing.T) {
	h := &accessHooks{}
	// 14 pages leave exactly one free frame when the journal slab next
	// needs a frame of its own.
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 14, SlowPages: 0, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	var objIDs, inoGen kstate.IDGen
	f := New(mem, blockdev.NewMQ(blockdev.DefaultNVMe(), 1), h, &objIDs, &inoGen)
	file, err := f.Create(ctxAt(0), "/f")
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := int64(0); i < 16; i++ {
		err := f.Write(ctxAt(sim.Time(i*int64(sim.Microsecond))), file, i)
		p, cached := file.Inode.pages.Get(i)
		if err != nil {
			failed++
			if cached {
				t.Fatalf("failed write of page %d left the page cached", i)
			}
		} else if !cached || p.Obj.Frame == nil {
			t.Fatalf("write of page %d succeeded but the page is not cached", i)
		}
		if h.nilAccesses != 0 {
			t.Fatalf("write of page %d reported an access to a page without a frame", i)
		}
		if live := f.Stats.ObjLive[kobj.PageCache]; live != int64(file.Inode.CachedPages()) {
			t.Fatalf("after page %d: %d live page-cache objects, %d cached pages", i, live, file.Inode.CachedPages())
		}
	}
	if failed == 0 {
		t.Fatal("no write ran out of memory: the path under test was not reached")
	}
}
