package fs

import (
	"fmt"
	"testing"
	"testing/quick"

	"kloc/internal/blockdev"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

func TestRename(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/a")
	f.Write(ctx, file, 0)
	if err := f.Rename(ctx, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(ctxAt(1), "/a"); err == nil {
		t.Fatal("old path still resolves")
	}
	g, err := f.Open(ctxAt(2), "/b")
	if err != nil {
		t.Fatal(err)
	}
	if g.Inode != file.Inode {
		t.Fatal("rename changed identity")
	}
	if g.Inode.pages.Len() != 1 {
		t.Fatal("rename lost page cache")
	}
	if f.Stats.Renames != 1 {
		t.Fatal("rename not counted")
	}
	// Rename to self is a no-op.
	if err := f.Rename(ctx, "/b", "/b"); err != nil {
		t.Fatal(err)
	}
	// Rename of a missing path fails.
	if err := f.Rename(ctx, "/missing", "/x"); err == nil {
		t.Fatal("rename of missing file succeeded")
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	a, _ := f.Create(ctx, "/a")
	b, _ := f.Create(ctx, "/b")
	f.Close(ctx, b)
	if err := f.Rename(ctx, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, err := f.Open(ctxAt(1), "/b")
	if err != nil {
		t.Fatal(err)
	}
	if got.Inode != a.Inode {
		t.Fatal("replace-rename did not install the source inode")
	}
	if f.Stats.Unlinks != 1 {
		t.Fatal("replaced target not unlinked")
	}
}

func TestTruncateShrink(t *testing.T) {
	f, mem := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/t")
	for i := int64(0); i < 100; i++ {
		f.Write(ctx, file, i)
	}
	f.Fsync(ctx, file)
	framesBefore := liveFrames(mem)
	if err := f.Truncate(ctx, file, 10); err != nil {
		t.Fatal(err)
	}
	if file.Inode.SizePages != 10 {
		t.Fatalf("size = %d", file.Inode.SizePages)
	}
	if got := file.Inode.pages.Len(); got != 10 {
		t.Fatalf("cached pages after truncate = %d", got)
	}
	if liveFrames(mem) >= framesBefore {
		t.Fatal("truncate freed no frames")
	}
	// Extents beyond the new size are gone; the first survives.
	if file.Inode.extents.Len() != 1 {
		t.Fatalf("extents = %d", file.Inode.extents.Len())
	}
	// Reading past EOF repopulates from "disk" (new page).
	if err := f.Read(ctxAt(10), file, 50); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateExtend(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/t")
	f.Write(ctx, file, 0)
	if err := f.Truncate(ctx, file, 100); err != nil {
		t.Fatal(err)
	}
	if file.Inode.SizePages != 100 || file.Inode.pages.Len() != 1 {
		t.Fatal("logical extension should not allocate pages")
	}
	// Negative clamps to zero.
	if err := f.Truncate(ctx, file, -5); err != nil {
		t.Fatal(err)
	}
	if file.Inode.SizePages != 0 {
		t.Fatalf("size = %d", file.Inode.SizePages)
	}
}

// TestFSInvariantsProperty drives random FS operation mixes with
// EvictFrame calls among them and checks structural invariants: every
// cached page has a live page-cache frame of its own, live-object
// counts never go negative, and EvictFrame returns true exactly when,
// at the moment of the call, the frame backs a cached page, in which
// case that page alone is gone and a dirty one was written back. The
// frames it is handed are cached ones, frames that once backed a page
// and have since been freed or recycled, frames of unlinked inodes,
// and page-cache frames the filesystem does not own.
func TestFSInvariantsProperty(t *testing.T) {
	var failure string
	// freed and recycled count calls on a frame that was free, or had
	// been recycled to back another cached page, at the time; dirty
	// counts evictions of dirty pages.
	freed, recycled, dirty := 0, 0, 0
	f := func(seed uint64) bool {
		fail := func(format string, args ...any) bool {
			failure = fmt.Sprintf("seed %d: ", seed) + fmt.Sprintf(format, args...)
			return false
		}
		r := sim.NewRNG(seed)
		fsys, mem := newFSQuiet()
		ctx := ctxAt(0)
		var open []*File
		// seen holds frames once picked from the cache, and unlinked the
		// frames of inodes as they were unlinked, each with the ID it
		// had then.
		type frameRef struct {
			f  *memsim.Frame
			id memsim.FrameID
		}
		var seen, unlinked []frameRef
		evicts := [2]int{}
		paths := []string{"/p0", "/p1", "/p2", "/p3"}
		for i := 0; i < 400; i++ {
			ctx.Now = sim.Time(i) * 1000
			switch r.Intn(10) {
			case 0:
				if fl, err := fsys.Create(ctx, paths[r.Intn(len(paths))]); err == nil {
					open = append(open, fl)
				}
			case 1:
				if len(open) > 0 {
					fl := open[r.Intn(len(open))]
					fsys.Write(ctx, fl, r.Int63n(64))
				}
			case 2:
				if len(open) > 0 {
					fl := open[r.Intn(len(open))]
					fsys.Read(ctx, fl, r.Int63n(64))
				}
			case 3:
				if len(open) > 0 {
					j := r.Intn(len(open))
					fsys.Close(ctx, open[j])
					open = append(open[:j], open[j+1:]...)
				}
			case 4:
				path := paths[r.Intn(len(paths))]
				if ind, ok := fsys.inodes[fsys.dcache[path]]; ok {
					for _, e := range entries(&ind.pages) {
						unlinked = append(unlinked, frameRef{e.obj.Frame, e.obj.Frame.ID})
					}
				}
				fsys.Unlink(ctx, path)
			case 5:
				fsys.Rename(ctx, paths[r.Intn(len(paths))], paths[r.Intn(len(paths))])
			case 6:
				if len(open) > 0 {
					fsys.Truncate(ctx, open[r.Intn(len(open))], r.Int63n(32))
				}
			case 7:
				if len(open) > 0 {
					fsys.Fsync(ctx, open[r.Intn(len(open))])
				}
			default:
				var ref frameRef
				var foreign *memsim.Frame
				switch r.Intn(4) {
				case 0:
					var frames []*memsim.Frame
					fsys.ForEachInode(func(ind *Inode) bool {
						for _, e := range entries(&ind.pages) {
							frames = append(frames, e.obj.Frame)
						}
						return true
					})
					if len(frames) > 0 {
						fr := frames[r.Intn(len(frames))]
						ref = frameRef{fr, fr.ID}
						seen = append(seen, ref)
					}
				case 1:
					if len(seen) > 0 {
						ref = seen[r.Intn(len(seen))]
					}
				case 2:
					if len(unlinked) > 0 {
						ref = unlinked[r.Intn(len(unlinked))]
					}
				case 3:
					var err error
					if foreign, err = mem.Alloc(memsim.NodeID(r.Intn(2)), memsim.ClassCache, ctx.Now); err != nil {
						return fail("op %d: %v", i, err)
					}
					ref = frameRef{foreign, foreign.ID}
				}
				if ref.f == nil {
					continue
				}
				before, msg := cachedFrames(fsys)
				if msg != "" {
					return fail("op %d: %s", i, msg)
				}
				frame := ref.f
				want, cached := before[frame]
				if frame.Class == memsim.ClassFree {
					freed++
				} else if cached && frame.ID != ref.id {
					recycled++
				}
				wb := fsys.Stats.WritebackPages
				got := fsys.EvictFrame(ctxAt(ctx.Now), frame)
				if got != cached {
					return fail("op %d: EvictFrame of frame %d = %v, but it backs a cached page: %v", i, frame.ID, got, cached)
				}
				after, msg := cachedFrames(fsys)
				if msg != "" {
					return fail("op %d: after EvictFrame: %s", i, msg)
				}
				gone := 0
				if got {
					gone = 1
				}
				evicts[gone]++
				if len(after) != len(before)-gone {
					return fail("op %d: %d cached pages before EvictFrame returned %v, %d after", i, len(before), got, len(after))
				}
				for fr, p := range after {
					if before[fr] != p {
						return fail("op %d: EvictFrame of frame %d changed another page", i, frame.ID)
					}
				}
				wantWB := wb
				if want.dirty {
					wantWB++
					dirty++
				}
				if fsys.Stats.WritebackPages != wantWB {
					return fail("op %d: EvictFrame wrote back %d pages, want %d", i, fsys.Stats.WritebackPages-wb, wantWB-wb)
				}
				if foreign != nil {
					mem.Free(foreign)
				}
			}
		}
		if evicts[0] == 0 || evicts[1] == 0 {
			return fail("EvictFrame returned false %d times and true %d times; the sequence must reach both", evicts[0], evicts[1])
		}
		for _, n := range fsys.Stats.ObjLive {
			if n < 0 {
				return fail("negative live-object count %v", fsys.Stats.ObjLive)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(failure, err)
	}
	if freed == 0 || recycled == 0 || dirty == 0 {
		t.Fatalf("EvictFrame was handed %d freed frames, %d recycled into another cached page and %d dirty pages; want each", freed, recycled, dirty)
	}
	t.Logf("EvictFrame was handed %d freed frames, %d recycled into another cached page and %d dirty pages", freed, recycled, dirty)
}

// cachedPage is where a page-cache frame sits: its inode, page index
// and dirty bit.
type cachedPage struct {
	ind   *Inode
	idx   uint64
	dirty bool
}

// cachedFrames maps every frame backing a cached page of a live inode
// to that page, walking the inode table rather than inodeOrder. It
// reports a frame that backs two pages, or one that is not a live
// page-cache frame.
func cachedFrames(fsys *FS) (map[*memsim.Frame]cachedPage, string) {
	out := make(map[*memsim.Frame]cachedPage)
	msg := ""
	for _, ind := range fsys.inodes {
		for _, e := range entries(&ind.pages) {
			fr := e.obj.Frame
			if _, dup := out[fr]; dup {
				msg = fmt.Sprintf("frame %d backs two cached pages", fr.ID)
			} else if fr.Class != memsim.ClassCache {
				msg = fmt.Sprintf("page %d of inode %d sits on a %v frame", e.idx, ind.Ino, fr.Class)
			}
			out[fr] = cachedPage{ind, e.idx, e.marked}
		}
	}
	return out, msg
}

// newFSQuiet builds an FS without a testing.T (for property functions).
func newFSQuiet() (*FS, *memsim.Memory) {
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 512, SlowPages: 4096,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
	mq := blockdev.NewMQ(blockdev.SimNVMe(), 4)
	var objIDs, inoGen kstate.IDGen
	return New(mem, mq, kstate.NopHooks{}, &objIDs, &inoGen), mem
}

func TestTruncateTypesStayBalanced(t *testing.T) {
	f, _ := newFS(t, nil)
	ctx := ctxAt(0)
	file, _ := f.Create(ctx, "/bal")
	for i := int64(0); i < 64; i++ {
		f.Write(ctx, file, i)
	}
	f.Truncate(ctx, file, 0)
	if live := f.Stats.ObjLive[kobj.PageCache]; live != 0 {
		t.Fatalf("page-cache objects leaked: %d", live)
	}
	if live := f.Stats.ObjLive[kobj.Extent]; live != 0 {
		t.Fatalf("extents leaked: %d", live)
	}
}
