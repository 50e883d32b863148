package fs

import (
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Write writes one page at pageIdx through the page cache: radix-tree
// lookup/insert, page allocation on miss, extent mapping, and a journal
// record for the metadata update (the Fig 3b write path).
func (f *FS) Write(ctx *kstate.Ctx, file *File, pageIdx int64) error {
	ctx.Charge(syscallEntryCost)
	ind := file.Inode
	ind.lastUsed = ctx.Now
	f.Stats.Writes++
	if _, err := f.radixNode(ctx, ind, pageIdx); err != nil {
		return err
	}
	// Block mapping consults the extent tree on every write.
	if _, err := f.extentFor(ctx, ind, pageIdx); err != nil {
		return err
	}
	p, ok := ind.pages.Get(pageIdx)
	if !ok {
		obj, err := f.Objs.Alloc(ctx, kobj.PageCache, ind.Ino)
		if err != nil {
			return err
		}
		// Allocate the extent and journal record before the page enters
		// the cache: their direct reclaim drops clean cached pages, and a
		// fresh page is clean until the write completes. If either
		// allocation fails the page is freed; a record that was queued
		// but whose journal commit failed keeps its page, since a later
		// commit retries the record.
		if _, err := f.extentFor(ctx, ind, pageIdx); err != nil {
			f.Objs.Free(obj, ctx)
			return err
		}
		queued := len(f.journalPending)
		jerr := f.journalRecord(ctx, journalOp{kind: opBlock, ino: ind.Ino, idx: pageIdx})
		if jerr != nil && len(f.journalPending) == queued {
			f.Objs.Free(obj, ctx)
			return jerr
		}
		p = obj
		ind.pages.Set(pageIdx, p)
		if jerr != nil {
			return jerr
		}
		if pageIdx >= ind.SizePages {
			ind.SizePages = pageIdx + 1
		}
	} else {
		f.Stats.CacheHits++
	}
	p.Dirty = true
	// copy_from_user into the cache page, then journal/bookkeeping
	// re-reads it (§3.1: writes are even more memory-intensive).
	f.Objs.Touch(ctx, p, memsim.PageSize, true)
	f.Objs.Touch(ctx, p, memsim.PageSize, false)
	f.Hooks.PageAccessed(ctx, p.Frame)
	f.Objs.Touch(ctx, ind.inodeObj, 0, true)
	return nil
}

// Read reads one page at pageIdx. Cache hits cost a memory access;
// misses pay the block device and trigger adaptive readahead on
// sequential streaks (§4.4).
func (f *FS) Read(ctx *kstate.Ctx, file *File, pageIdx int64) error {
	ctx.Charge(syscallEntryCost)
	ind := file.Inode
	ind.lastUsed = ctx.Now
	f.Stats.Reads++
	// atime update + permission checks touch the inode.
	f.Objs.Touch(ctx, ind.inodeObj, 0, true)
	if _, err := f.radixNode(ctx, ind, pageIdx); err != nil {
		return err
	}
	p, ok := ind.pages.Get(pageIdx)
	if ok {
		f.Stats.CacheHits++
		if p.Prefetched {
			// First demand touch of a prefetched page.
			f.Stats.ReadaheadHits++
			p.Prefetched = false
		}
		// Page-cache read: lookup touch + copy_to_user streams the page
		// out of the cache (two passes over the data in the kernel's
		// cache-cold case, §3.1).
		f.Objs.Touch(ctx, p, memsim.PageSize, false)
		f.Objs.Touch(ctx, p, memsim.PageSize, false)
		f.Hooks.PageAccessed(ctx, p.Frame)
		f.updateStreak(ind, pageIdx)
		return nil
	}
	f.Stats.CacheMisses++
	p, err := f.fillPage(ctx, ind, pageIdx, true, false)
	if err != nil {
		return err
	}
	f.Objs.Touch(ctx, p, memsim.PageSize, false)
	f.Hooks.PageAccessed(ctx, p.Frame)
	f.updateStreak(ind, pageIdx)
	f.maybeReadahead(ctx, ind, pageIdx)
	return nil
}

// fillPage allocates a cache page and reads it from the device. When
// demand is false the device transfer is issued asynchronously: the
// device busy horizon advances, but the caller is not charged the
// latency (that is what makes prefetching worthwhile). viaKnode marks
// KLOC-aware prefetch issuance: the knode's object index supplies the
// block mapping directly, skipping the per-page extent walk (§4.4).
func (f *FS) fillPage(ctx *kstate.Ctx, ind *Inode, pageIdx int64, demand, viaKnode bool) (*kobj.Object, error) {
	obj, err := f.Objs.Alloc(ctx, kobj.PageCache, ind.Ino)
	if err != nil {
		return nil, err
	}
	// The page enters the cache only once its fill has completed: the
	// extent allocation's direct reclaim drops clean cached pages, and
	// the cache must not serve a page whose fill never ran.
	if viaKnode {
		ctx.Charge(60) // knode rbtree-cache lookup replaces the extent walk
	} else if _, err := f.extentFor(ctx, ind, pageIdx); err != nil {
		f.Objs.Free(obj, ctx)
		return nil, err
	}
	sequential := pageIdx == ind.lastRead+1
	lat, err := f.MQ.Submit(ctx.CPU, ctx.Now, memsim.PageSize, sequential, false)
	if demand {
		ctx.Charge(lat)
	}
	if err != nil {
		f.Objs.Free(obj, ctx)
		return nil, err
	}
	ind.pages.Set(pageIdx, obj)
	if pageIdx >= ind.SizePages {
		ind.SizePages = pageIdx + 1
	}
	return obj, nil
}

func (f *FS) updateStreak(ind *Inode, pageIdx int64) {
	if pageIdx == ind.lastRead+1 {
		ind.streak++
	} else {
		ind.streak = 0
	}
	ind.lastRead = pageIdx
}

// maybeReadahead prefetches up to ReadaheadWindow pages ahead of a
// sequential streak. With KlocAwareReadahead the prefetcher also warms
// the inode's metadata objects (radix nodes, extents) — the paper's
// KLOC-prefetch integration.
func (f *FS) maybeReadahead(ctx *kstate.Ctx, ind *Inode, pageIdx int64) {
	if f.ReadaheadWindow <= 0 || ind.streak < 2 {
		return
	}
	issued := 0
	for i := int64(1); i <= int64(f.ReadaheadWindow); i++ {
		idx := pageIdx + i
		if _, ok := ind.pages.Get(idx); ok {
			continue
		}
		p, err := f.fillPage(ctx, ind, idx, false, f.KlocAwareReadahead)
		if err != nil {
			break // memory pressure: stop prefetching
		}
		p.Prefetched = true
		issued++
	}
	f.Stats.ReadaheadIssued += uint64(issued)
}

// Fsync commits the journal and writes back the inode's dirty pages
// through the block layer (allocating Block and BlkMQ objects for the
// dispatch, per Table 1).
func (f *FS) Fsync(ctx *kstate.Ctx, file *File) error {
	ctx.Charge(syscallEntryCost)
	ind := file.Inode
	f.Stats.Syncs++
	if err := f.journalCommit(ctx); err != nil {
		return err
	}
	return f.writebackInode(ctx, ind)
}

// pageRef is a page-cache page taken out of its tree for a pass
// that may change the tree: its index and its object.
type pageRef struct {
	idx int64
	obj *kobj.Object
}

// writebackInode flushes dirty pages in index order, batching
// contiguous runs into single block-layer submissions.
func (f *FS) writebackInode(ctx *kstate.Ctx, ind *Inode) error {
	dirty := f.dirtyRuns[:0]
	f.dirtyRuns = nil
	ind.pages.Ascend(func(idx int64, o *kobj.Object) bool {
		if o.Dirty {
			dirty = append(dirty, pageRef{idx, o})
		}
		return true
	})
	ind.writeback = true
	err := f.writeRuns(ctx, ind, dirty)
	ind.writeback = false
	f.dirtyRuns = dirty[:0]
	return err
}

// writeRuns writes back an inode's dirty pages, given in index order.
func (f *FS) writeRuns(ctx *kstate.Ctx, ind *Inode, dirty []pageRef) error {
	if len(dirty) == 0 {
		return nil
	}
	// One bio (Block object) + blk_mq request per run of up to 256
	// contiguous pages. All runs are submitted asynchronously and the
	// caller waits for the slowest completion, so the charge is the MAX
	// completion latency, not the sum.
	var wait sim.Duration
	var firstErr error
	runStart := 0
	for i := 1; i <= len(dirty); i++ {
		endOfRun := i == len(dirty) ||
			dirty[i].idx != dirty[i-1].idx+1 || i-runStart >= 256
		if !endOfRun {
			continue
		}
		run := dirty[runStart:i]
		bio, err := f.Objs.Alloc(ctx, kobj.Block, ind.Ino)
		if err != nil {
			return err
		}
		mqObj, err := f.Objs.Alloc(ctx, kobj.BlkMQ, ind.Ino)
		if err != nil {
			f.Objs.Free(bio, ctx)
			return err
		}
		f.Objs.Touch(ctx, bio, 0, true)
		bytes := len(run) * memsim.PageSize
		lat, err := f.MQ.Submit(ctx.CPU, ctx.Now, bytes, len(run) > 1, true)
		if lat > wait {
			wait = lat
		}
		if err != nil {
			// Hard write failure: the run's pages stay dirty for a later
			// writeback attempt; surface the first error after all runs.
			if firstErr == nil {
				firstErr = err
			}
		} else {
			for _, p := range run {
				// Reading the page for the DMA copy.
				f.Objs.Touch(ctx, p.obj, memsim.PageSize, false)
				p.obj.Dirty = false
				f.Stats.WritebackPages++
			}
		}
		// bio and blk_mq request die at completion: the short-lifetime
		// population of Fig 2d.
		f.Objs.Free(bio, ctx)
		f.Objs.Free(mqObj, ctx)
		runStart = i
	}
	ctx.Charge(wait)
	return firstErr
}

// EvictFrame drops the page-cache page backed by the given frame
// (called by reclaim when memory pressure demands freeing rather than
// migrating). Dirty pages are written back first. Reports whether it
// dropped a page of this FS; a page of an inode under writeback stays.
//
// It walks the page trees rather than keep a frame→page map that every
// page-cache fill and free would write: its only caller is the OOM
// evictor's last resort, for frames that could not spill, which no
// experiment reaches.
func (f *FS) EvictFrame(ctx *kstate.Ctx, frame *memsim.Frame) bool {
	var ind *Inode
	var p pageRef
	f.ForEachInode(func(in *Inode) bool {
		in.pages.Ascend(func(idx int64, o *kobj.Object) bool {
			if o.Frame == frame {
				ind, p = in, pageRef{idx, o}
			}
			return p.obj == nil
		})
		return p.obj == nil
	})
	if p.obj == nil || ind.writeback {
		return false
	}
	if p.obj.Dirty {
		lat, err := f.MQ.Submit(ctx.CPU, ctx.Now, memsim.PageSize, false, true)
		ctx.Charge(lat)
		if err != nil {
			// Writeback failed: the dirty page must not be dropped.
			return false
		}
		f.Stats.WritebackPages++
	}
	ind.pages.Delete(p.idx)
	f.Objs.Free(p.obj, ctx)
	return true
}

// DropCleanPages evicts up to n clean page-cache pages of an inode
// (used when a file closes under pressure). Returns pages dropped.
func (f *FS) DropCleanPages(ctx *kstate.Ctx, ind *Inode, n int) int {
	if n <= 0 {
		return 0
	}
	var victims []pageRef
	ind.pages.Ascend(func(idx int64, o *kobj.Object) bool {
		if !o.Dirty {
			victims = append(victims, pageRef{idx, o})
		}
		return len(victims) < n
	})
	for _, p := range victims {
		ind.pages.Delete(p.idx)
		f.Objs.Free(p.obj, ctx)
	}
	return len(victims)
}
