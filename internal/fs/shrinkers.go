// FS-side shrinkers for the memory-pressure plane: the page cache and
// the dentry/inode caches expose Linux-style count/scan reclaim, and
// the filesystem can nominate an OOM victim (coldest inode by
// footprint × idle time) for the last-resort degradation path.
package fs

import (
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/pressure"
	"kloc/internal/sim"
)

// pageCacheShrinker reclaims page-cache pages via FS.Reclaim.
type pageCacheShrinker struct{ f *FS }

func (s pageCacheShrinker) Name() string { return "fs.pagecache" }

func (s pageCacheShrinker) Count() int { return s.f.CachePages() }

func (s pageCacheShrinker) Scan(ctx *kstate.Ctx, n int) int {
	return s.f.Reclaim(ctx, n)
}

// PageCacheShrinker exposes the page cache to the pressure plane.
func (f *FS) PageCacheShrinker() pressure.Shrinker { return pageCacheShrinker{f} }

// dentryShrinker evicts dentries of unreferenced inodes, and — when an
// inode also has no cached pages — its icache presence: the inode
// object, radix interior nodes, and extent maps. The file itself
// survives (durable metadata is untouched); a later Open re-allocates
// the objects, exactly like a real icache miss.
type dentryShrinker struct{ f *FS }

func (s dentryShrinker) Name() string { return "fs.dentry" }

func (s dentryShrinker) Count() int {
	n := 0
	for _, ino := range s.f.inodeOrder {
		ind, ok := s.f.inodes[ino]
		if !ok || ind.Refs > 0 {
			continue
		}
		if ind.dentry != nil {
			n++
		}
		if ind.inodeObj != nil && ind.pages.Len() == 0 {
			n += 1 + ind.radixNodes.Len() + ind.extents.Len()
		}
	}
	return n
}

func (s dentryShrinker) Scan(ctx *kstate.Ctx, n int) int {
	f := s.f
	freed := 0
	for _, ino := range f.inodeOrder {
		if freed >= n {
			break
		}
		ind, ok := f.inodes[ino]
		if !ok || ind.Refs > 0 {
			continue
		}
		if ind.dentry != nil {
			if f.dcache[ind.Path] == ind.Ino {
				delete(f.dcache, ind.Path)
			}
			f.Objs.Free(ind.dentry, ctx)
			ind.dentry = nil
			freed++
		}
		if ind.inodeObj == nil || ind.pages.Len() > 0 {
			continue
		}
		// Full icache eviction: radix nodes in slot order, then
		// extents, then the inode.
		freed += f.freeFrom(ctx, &ind.radixNodes, 0)
		freed += f.freeFrom(ctx, &ind.extents, 0)
		f.Objs.Free(ind.inodeObj, ctx)
		ind.inodeObj = nil
		freed++
	}
	return freed
}

// DentryShrinker exposes the dentry/inode caches to the pressure
// plane.
func (f *FS) DentryShrinker() pressure.Shrinker { return dentryShrinker{f} }

// OOMVictimFrames nominates the filesystem's OOM victim: the inode
// with the largest (pages on the pressured node) × (idle time) score.
// Returns its page-cache frames on that node, for the evictor to spill
// or free. Open files are fair game — under OOM everything is — but
// referenced inodes score at one tick of idleness, so cold files go
// first.
func (f *FS) OOMVictimFrames(node memsim.NodeID, now sim.Time) []*memsim.Frame {
	var victim *Inode
	var best uint64
	for _, ino := range f.inodeOrder {
		ind, ok := f.inodes[ino]
		if !ok {
			continue
		}
		onNode := 0
		for idx, o := ind.pages.find(0, xaAll); o != nil; idx, o = ind.pages.find(idx+1, xaAll) {
			if o.Frame.Node == node {
				onNode++
			}
		}
		if onNode == 0 {
			continue
		}
		idle := uint64(1)
		if ind.Refs == 0 && now > ind.lastUsed {
			idle += uint64(now.Sub(ind.lastUsed))
		}
		score := uint64(onNode) * idle
		if score > best {
			best = score
			victim = ind
		}
	}
	if victim == nil {
		return nil
	}
	var frames []*memsim.Frame
	x := &victim.pages
	for idx, o := x.find(0, xaAll); o != nil; idx, o = x.find(idx+1, xaAll) {
		if o.Frame.Node == node {
			frames = append(frames, o.Frame)
		}
	}
	return frames
}
