package fs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// refPage is the page-cache entry as the filesystem kept it before the
// flags left it: the object, the ID it had when it was cached, and
// writeback and readahead state beside it.
type refPage struct {
	obj        *kobj.Object
	id         kobj.ID
	dirty      bool
	prefetched bool
}

// pcInode is the reference's view of one inode: its cached pages, the
// radix slots Read and Write have touched since its icache was last
// evicted, and its readahead streak.
type pcInode struct {
	pages    map[int64]*refPage
	slots    map[int64]bool
	lastRead int64
	streak   int
}

func newPCInode() *pcInode {
	return &pcInode{pages: make(map[int64]*refPage), slots: make(map[int64]bool), lastRead: -2}
}

// refCache is the reference page cache with the counters it predicts.
// seen records every page object cached so far with the ID it had, and
// recycled counts pages cached in a struct an earlier page had.
type refCache struct {
	inodes                               map[uint64]*pcInode
	cacheHits, readaheadHits, writebacks uint64
	seen                                 map[*kobj.Object]kobj.ID
	recycled                             int
}

func (r *refCache) inode(ino uint64) *pcInode {
	ri := r.inodes[ino]
	if ri == nil {
		ri = newPCInode()
		r.inodes[ino] = ri
	}
	return ri
}

// sortedIdx returns a map's keys in ascending order.
func sortedIdx[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// adopt records a page the filesystem has just cached at idx. Its
// object must be new: an ID never seen before.
func (r *refCache) adopt(ri *pcInode, ind *Inode, idx int64, prefetched bool) error {
	o := ind.pages.get(uint64(idx))
	if o == nil {
		return fmt.Errorf("page %d not cached", idx)
	}
	if id, ok := r.seen[o]; ok {
		if id >= o.ID {
			return fmt.Errorf("new page %d is object %d, which was object %d before", idx, o.ID, id)
		}
		r.recycled++
	}
	r.seen[o] = o.ID
	ri.pages[idx] = &refPage{obj: o, id: o.ID, prefetched: prefetched}
	return nil
}

func (ri *pcInode) updateStreak(idx int64) {
	if idx == ri.lastRead+1 {
		ri.streak++
	} else {
		ri.streak = 0
	}
	ri.lastRead = idx
}

// read applies a successful Read of idx: a hit clears the page's
// readahead mark, a miss caches the page and, on a sequential streak,
// prefetches up to window pages after it.
func (r *refCache) read(ind *Inode, idx int64, window int) error {
	ri := r.inode(ind.Ino)
	ri.slots[idx/radixFanout] = true
	if p, ok := ri.pages[idx]; ok {
		r.cacheHits++
		if p.prefetched {
			r.readaheadHits++
			p.prefetched = false
		}
		ri.updateStreak(idx)
		return nil
	}
	if err := r.adopt(ri, ind, idx, false); err != nil {
		return err
	}
	ri.updateStreak(idx)
	if window <= 0 || ri.streak < 2 {
		return nil
	}
	for i := int64(1); i <= int64(window); i++ {
		if _, ok := ri.pages[idx+i]; ok {
			continue
		}
		if err := r.adopt(ri, ind, idx+i, true); err != nil {
			return err
		}
	}
	return nil
}

// write applies a successful Write of idx.
func (r *refCache) write(ind *Inode, idx int64) error {
	ri := r.inode(ind.Ino)
	ri.slots[idx/radixFanout] = true
	p, ok := ri.pages[idx]
	if ok {
		r.cacheHits++
	} else {
		if err := r.adopt(ri, ind, idx, false); err != nil {
			return err
		}
		p = ri.pages[idx]
	}
	p.dirty = true
	return nil
}

// writeback cleans every dirty page of an inode.
func (r *refCache) writeback(ino uint64) {
	for _, p := range r.inode(ino).pages {
		if p.dirty {
			p.dirty = false
			r.writebacks++
		}
	}
}

// dirty lists an inode's dirty pages in index order.
func (r *refCache) dirty(ino uint64) []pageRef {
	ri := r.inode(ino)
	var out []pageRef
	for _, i := range sortedIdx(ri.pages) {
		if p := ri.pages[i]; p.dirty {
			out = append(out, pageRef{uint64(i), p.obj})
		}
	}
	return out
}

// dropFrom drops the pages at or beyond idx.
func (r *refCache) dropFrom(ino uint64, idx int64) {
	ri := r.inode(ino)
	for i := range ri.pages {
		if i >= idx {
			delete(ri.pages, i)
		}
	}
}

// dropClean drops up to n clean pages of an inode in index order.
func (r *refCache) dropClean(ino uint64, n int) {
	ri := r.inode(ino)
	for _, i := range sortedIdx(ri.pages) {
		if n == 0 {
			return
		}
		if !ri.pages[i].dirty {
			delete(ri.pages, i)
			n--
		}
	}
}

// indexKeys lists an index's keys in increasing order.
func indexKeys(x *xarray) []int64 {
	var keys []int64
	for _, e := range entries(x) {
		keys = append(keys, int64(e.idx))
	}
	return keys
}

// check compares the filesystem with the reference: every live inode's
// cached indexes, each page's object, ID, dirty mark and readahead
// flag, its radix nodes in slot order, and the three page-cache
// counters.
func (r *refCache) check(fsys *FS) error {
	for ino := range r.inodes {
		if _, ok := fsys.inodes[ino]; !ok {
			return fmt.Errorf("inode %d is gone from the filesystem but not from the reference", ino)
		}
	}
	var err error
	fsys.ForEachInode(func(ind *Inode) bool {
		ri := r.inode(ind.Ino)
		if got, want := indexKeys(&ind.pages), sortedIdx(ri.pages); !slices.Equal(got, want) {
			err = fmt.Errorf("inode %d caches pages %v, reference %v", ind.Ino, got, want)
			return false
		}
		for _, e := range entries(&ind.pages) {
			o, p := e.obj, ri.pages[int64(e.idx)]
			switch {
			case o != p.obj || o.ID != p.id:
				err = fmt.Errorf("inode %d page %d is object %d, reference object %d", ind.Ino, e.idx, o.ID, p.id)
			case o.Type != kobj.PageCache || o.Frame == nil:
				err = fmt.Errorf("inode %d page %d is a %s with frame %v", ind.Ino, e.idx, o.Type, o.Frame)
			case e.marked != p.dirty || o.Prefetched != p.prefetched:
				err = fmt.Errorf("inode %d page %d dirty %v prefetched %v, reference %v %v",
					ind.Ino, e.idx, e.marked, o.Prefetched, p.dirty, p.prefetched)
			}
			if err != nil {
				return false
			}
		}
		if got, want := indexKeys(&ind.radixNodes), sortedIdx(ri.slots); !slices.Equal(got, want) {
			err = fmt.Errorf("inode %d has radix nodes for slots %v, reference %v", ind.Ino, got, want)
			return false
		}
		for _, e := range entries(&ind.radixNodes) {
			if o := e.obj; o.Type != kobj.RadixNode || o.Frame == nil {
				err = fmt.Errorf("inode %d radix slot %d is a %s with frame %v", ind.Ino, e.idx, o.Type, o.Frame)
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	st := fsys.Stats
	if st.CacheHits != r.cacheHits || st.ReadaheadHits != r.readaheadHits || st.WritebackPages != r.writebacks {
		return fmt.Errorf("cache hits %d, readahead hits %d, writeback pages %d; reference %d %d %d",
			st.CacheHits, st.ReadaheadHits, st.WritebackPages, r.cacheHits, r.readaheadHits, r.writebacks)
	}
	return nil
}

// TestPageCacheMatchesReference drives one seeded random sequence of
// Create/Open/Close, Write, Read (random and sequential, so readahead
// fires and its pages are hit), Fsync, Truncate, Unlink,
// DropCleanPages, EvictFrame, a full dentry-shrinker scan and
// Crash/Replay, and after every op compares the filesystem, whose page
// cache keeps the dirty state as a mark in its index and the readahead
// flag on the object, with a reference that keeps the per-page
// {object, dirty, prefetched} wrapper the filesystem used to keep.
// Before each Fsync, the page list writeback gathers must be the
// reference's dirty pages in index order. Random reads and writes
// sometimes draw an index beyond 64² (an index three levels tall) or
// a negative one, which must fail with EINVAL and cache nothing. Freed
// page objects are recycled into later pages, so a flag that survives
// recycling, or a stale entry, shows up.
func TestPageCacheMatchesReference(t *testing.T) {
	paths := []string{"/a", "/b", "/c", "/d"}
	var ops [12]int
	recycled, raHits := 0, uint64(0)
	far, negative := 0, 0
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		fsys, mem := newFSQuiet()
		ref := &refCache{inodes: make(map[uint64]*pcInode), seen: make(map[*kobj.Object]kobj.ID)}
		rng := sim.NewRNG(seed)
		open := map[string]*File{}
		next := map[string]int64{}
		for step := 0; step < 3000; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			ctx := ctxAt(sim.Time(step) * 1000)
			path := paths[rng.Intn(len(paths))]
			file := open[path]
			op := pageCacheOp(rng.Intn(100))
			var err error
			switch {
			case op == 0 || file == nil && op < 8:
				op = 0
				if file != nil {
					break
				}
				if rng.Intn(2) == 0 {
					file, err = fsys.Create(ctx, path)
				} else if file, err = fsys.Open(ctx, path); err != nil {
					err = nil // not created yet, or unlinked
					break
				}
				open[path] = file
			case op == 1:
				idx := pageCacheIdx(rng)
				switch err = fsys.Write(ctx, file, idx); {
				case idx < 0:
					err = wantEINVAL(err, idx)
					negative++
				case err == nil:
					if idx >= radixFanout*radixFanout {
						far++
					}
					err = ref.write(file.Inode, idx)
				}
			case op == 2 || op == 3:
				idx := pageCacheIdx(rng)
				if op == 3 {
					idx = next[path]
					next[path] = (idx + 1) % (3 * radixFanout)
				}
				switch err = fsys.Read(ctx, file, idx); {
				case idx < 0:
					err = wantEINVAL(err, idx)
					negative++
				case err == nil:
					if idx >= radixFanout*radixFanout {
						far++
					}
					err = ref.read(file.Inode, idx, fsys.ReadaheadWindow)
				}
			case op == 4:
				got, want := file.Inode.dirtyPages(nil), ref.dirty(file.Inode.Ino)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: writeback would submit %v, reference dirty pages %v", at, got, want)
				}
				if err = fsys.Fsync(ctx, file); err == nil {
					ref.writeback(file.Inode.Ino)
				}
			case op == 5:
				size := rng.Int63n(3 * radixFanout)
				shrink := size < file.Inode.SizePages
				if err = fsys.Truncate(ctx, file, size); err == nil && shrink {
					ref.dropFrom(file.Inode.Ino, size)
				}
			case op == 6:
				n := rng.Intn(9)
				if got := fsys.DropCleanPages(ctx, file.Inode, n); got > n {
					t.Fatalf("%s: DropCleanPages(%d) dropped %d pages", at, n, got)
				}
				ref.dropClean(file.Inode.Ino, n)
			case op == 7:
				// The last close of an unlinked file destroys it with
				// its pages.
				unlinked := file.Inode.Nlink == 0
				fsys.Close(ctx, file)
				delete(open, path)
				if unlinked {
					delete(ref.inodes, file.Inode.Ino)
				}
			case op == 8:
				// An open file outlives its unlink until its last close;
				// a closed one is destroyed with its pages. (A replay can
				// resurrect an inode whose unlink was not committed beside
				// a newer one at the same path, so the inode is found
				// afterwards.)
				if err = fsys.Unlink(ctx, path); err != nil {
					err = nil // no such path
					break
				}
				for ino := range ref.inodes {
					if _, live := fsys.inodes[ino]; !live {
						delete(ref.inodes, ino)
					}
				}
			case op == 9:
				// A cached page's frame, or one the filesystem does not own.
				var frame *memsim.Frame
				var owner uint64
				var idx int64
				for _, ino := range sortedInos(ref) {
					ri := ref.inodes[ino]
					if len(ri.pages) > 0 && rng.Intn(2) == 0 {
						idxs := sortedIdx(ri.pages)
						owner, idx = ino, idxs[rng.Intn(len(idxs))]
						frame = ri.pages[idx].obj.Frame
						break
					}
				}
				var foreign *memsim.Frame
				if frame == nil {
					if foreign, err = mem.Alloc(memsim.FastNode, memsim.ClassCache, ctx.Now); err != nil {
						break
					}
					frame = foreign
				}
				if got, want := fsys.EvictFrame(ctx, frame), owner != 0; got != want {
					t.Fatalf("%s: EvictFrame = %v, want %v", at, got, want)
				}
				if foreign != nil {
					mem.Free(foreign)
				}
				if owner != 0 {
					if ref.inodes[owner].pages[idx].dirty {
						ref.writebacks++
					}
					delete(ref.inodes[owner].pages, idx)
				}
			case op == 10:
				// A full scan evicts the icache of every unreferenced
				// inode that still has one and caches no page.
				fsys.ForEachInode(func(ind *Inode) bool {
					if ind.Refs == 0 && ind.inodeObj != nil && ind.pages.Len() == 0 {
						clear(ref.inode(ind.Ino).slots)
					}
					return true
				})
				fsys.DentryShrinker().Scan(ctx, 1<<30)
			default:
				fsys.Crash(ctx)
				err = fsys.Replay(ctx)
				clear(open)
				clear(ref.inodes)
			}
			ops[op]++
			if err != nil {
				t.Fatalf("%s: op %d: %v", at, op, err)
			}
			if err := ref.check(fsys); err != nil {
				t.Fatalf("%s: after op %d: %v", at, op, err)
			}
		}
		recycled += ref.recycled
		raHits += ref.readaheadHits
	}
	for op, n := range ops {
		if n == 0 {
			t.Fatalf("op %d never ran: %v", op, ops)
		}
	}
	if recycled == 0 || raHits == 0 || far == 0 || negative == 0 {
		t.Fatalf("%d pages cached in a recycled object, %d readahead hits, %d pages beyond 64², %d negative indexes; want each",
			recycled, raHits, far, negative)
	}
	t.Logf("ops run: %v; %d pages cached in recycled objects, %d readahead hits, %d pages beyond 64², %d negative indexes",
		ops, recycled, raHits, far, negative)
}

// pageCacheIdx draws a page index for a random Read or Write: mostly
// within the first three radix slots, sometimes beyond 64² and so in a
// three-level index, and now and then negative.
func pageCacheIdx(rng *sim.RNG) int64 {
	switch r := rng.Intn(100); {
	case r < 3:
		return -1 - rng.Int63n(3*radixFanout)
	case r < 12:
		return radixFanout*radixFanout + rng.Int63n(3*radixFanout)
	default:
		return rng.Int63n(3 * radixFanout)
	}
}

// wantEINVAL checks that a Read or Write of a negative index failed
// with EINVAL.
func wantEINVAL(err error, idx int64) error {
	if !errors.Is(err, fault.EINVAL) {
		return fmt.Errorf("page index %d: err %v, want EINVAL", idx, err)
	}
	return nil
}

// pageCacheOp maps a percentile to an op of
// TestPageCacheMatchesReference: 0 open, 1 write, 2 random read,
// 3 sequential read, 4 fsync, 5 truncate, 6 drop clean pages, 7 close,
// 8 unlink, 9 evict a frame, 10 dentry-shrinker scan, 11 crash and
// replay.
func pageCacheOp(pct int) int {
	for op, upTo := range [...]int{10, 30, 40, 55, 62, 68, 74, 81, 86, 93, 98} {
		if pct < upTo {
			return op
		}
	}
	return 11
}

// sortedInos returns the reference's inode numbers in ascending order.
func sortedInos(r *refCache) []uint64 {
	out := make([]uint64, 0, len(r.inodes))
	for ino := range r.inodes {
		out = append(out, ino)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cachedPageOps returns a filesystem with one open file whose pages
// 0..7 are cached.
func cachedPageOps(tb testing.TB) (*FS, *kstate.Ctx, *File) {
	fsys, _ := newFSQuiet()
	ctx := ctxAt(0)
	file, err := fsys.Create(ctx, "/hot")
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := fsys.Write(ctx, file, i); err != nil {
			tb.Fatal(err)
		}
	}
	return fsys, ctx, file
}

// pageCacheHit writes and then reads one cached page.
func pageCacheHit(tb testing.TB, fsys *FS, ctx *kstate.Ctx, file *File, idx int64) {
	if err := fsys.Write(ctx, file, idx); err != nil {
		tb.Fatal(err)
	}
	if err := fsys.Read(ctx, file, idx); err != nil {
		tb.Fatal(err)
	}
}

// TestPageCacheHitIsAllocFree is the page cache's allocation gate: a
// Write and a Read of an already-cached page allocate nothing. The
// page's flags live on its object, and its radix node and extent are
// found in their trees.
func TestPageCacheHitIsAllocFree(t *testing.T) {
	fsys, ctx, file := cachedPageOps(t)
	idx := int64(0)
	if avg := testing.AllocsPerRun(200, func() {
		pageCacheHit(t, fsys, ctx, file, idx)
		idx = (idx + 3) % 8
	}); avg != 0 {
		t.Fatalf("a cached Write+Read allocates %.2f, want 0", avg)
	}
}

// BenchmarkPageCacheHit times the loop of TestPageCacheHitIsAllocFree,
// one cached Write+Read per op.
func BenchmarkPageCacheHit(b *testing.B) {
	fsys, ctx, file := cachedPageOps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pageCacheHit(b, fsys, ctx, file, int64(n%8))
	}
}
