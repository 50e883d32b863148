// Package fs simulates the filesystem stack the paper instruments: a
// VFS layer (inodes, a dentry cache), an ext4-like body (extent maps, a
// jbd2-style journal), a radix-tree page cache with adaptive readahead,
// and writeback through the blk_mq block layer.
//
// Every kernel object from Table 1's FS rows is allocated through the
// real (simulated) allocator suite, reported to the policy layer via
// kstate.Hooks, and charged to virtual time, so the characterization
// figures (2a-2d) and the placement results (Fig 4-6) all emerge from
// the same code paths.
package fs

import (
	"fmt"

	"kloc/internal/alloc"
	"kloc/internal/blockdev"
	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/rbtree"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// Cost constants for FS code paths.
const (
	// pathWalkCost per path component on a dentry-cache miss.
	pathWalkCost sim.Duration = 600
	// syscallEntryCost models mode switch + argument checking.
	syscallEntryCost sim.Duration = 100
	// radixFanout pages per radix-tree node.
	radixFanout = 64
	// extentSpan pages per extent mapping.
	extentSpan = 32
	// journalRecordBytes logged per metadata update.
	journalRecordBytes = 512
)

// Stats tracks FS-level activity.
type Stats struct {
	Creates, Opens, Closes, Unlinks uint64
	Renames, Truncates              uint64
	Reads, Writes, Syncs            uint64
	CacheHits, CacheMisses          uint64
	DentryHits, DentryMisses        uint64
	ReadaheadIssued, ReadaheadHits  uint64
	WritebackPages                  uint64
	JournalCommits                  uint64
	JournalCommitFails              uint64
	Crashes                         uint64
	ReplayedInodes                  uint64
	ReclaimedPages                  uint64
	alloc.ObjStats
}

// FS is the simulated filesystem instance.
type FS struct {
	Mem   *memsim.Memory
	MQ    *blockdev.MQ
	Hooks kstate.Hooks
	// InoGen is shared with the network stack so the inode namespace is
	// global (everything is a file).
	InoGen *kstate.IDGen

	// Objs is the kernel-object path every FS object is allocated,
	// touched and freed through. Until a kernel wires its pressure
	// plane, the path's direct reclaim falls back to this filesystem's
	// page cache.
	Objs *alloc.Objects

	inodes map[uint64]*Inode
	dcache map[string]uint64 // path -> ino
	// inodeOrder keeps deterministic (creation-order) iteration for
	// reclaim; Go map iteration order would break reproducibility.
	inodeOrder []uint64
	// nodes recycles the nodes of every inode's page, radix and extent
	// trees. A file's trees die with it, so only a pool the filesystem
	// owns can carry their nodes over to the next file.
	nodes rbtree.Pool[int64, *kobj.Object]

	// ReadaheadWindow is the max pages prefetched on a sequential
	// streak; 0 disables readahead.
	ReadaheadWindow int
	// KlocAwareReadahead extends readahead to the inode's kernel
	// objects (§4.4 "Making KLOCs amenable to I/O prefetching").
	KlocAwareReadahead bool
	// JournalMaxPending bounds the in-memory journal before a forced
	// commit; 0 means DefaultJournalMaxPending.
	JournalMaxPending int

	// Trace, when non-nil, records fs.journal.commit events. Strictly
	// passive; nil disables tracing.
	Trace *trace.Tracer

	journalPending []journalOp
	// dirtyRuns is writebackInode's page list, kept between calls. A
	// call takes it off the FS while it runs, so a writeback nested
	// under its allocations (direct reclaim writing back another inode)
	// builds its own.
	dirtyRuns []pageRef
	// durable is the committed metadata image — what a crash preserves
	// and Replay rebuilds.
	durable    map[uint64]*durableInode
	reclaiming bool

	Stats Stats
}

// New builds a filesystem over the given memory and block layers.
// objIDs and inoGen are shared with the network stack.
func New(mem *memsim.Memory, mq *blockdev.MQ, hooks kstate.Hooks, objIDs, inoGen *kstate.IDGen) *FS {
	f := &FS{
		Mem:             mem,
		MQ:              mq,
		Hooks:           hooks,
		InoGen:          inoGen,
		inodes:          make(map[uint64]*Inode),
		dcache:          make(map[string]uint64),
		durable:         make(map[uint64]*durableInode),
		ReadaheadWindow: 8,
	}
	f.Objs = alloc.NewObjects(mem, hooks, objIDs, &f.Stats.ObjStats)
	return f
}

// Reclaim drops up to n page-cache pages, oldest inode first (a
// deterministic kswapd stand-in). Clean pages go first; if none exist,
// dirty pages are written back and dropped. Reports pages freed.
// Re-entrant calls (writeback allocating under pressure, the kernel's
// PF_MEMALLOC situation) return 0 immediately, and an inode under
// writeback is skipped: the writeback that allocated holds its pages.
func (f *FS) Reclaim(ctx *kstate.Ctx, n int) int {
	if f.reclaiming {
		return 0
	}
	f.reclaiming = true
	defer func() { f.reclaiming = false }()
	freed := 0
	for pass := 0; pass < 2 && freed == 0; pass++ {
		for _, ino := range f.inodeOrder {
			if freed >= n {
				break
			}
			ind, ok := f.inodes[ino]
			if !ok || ind.writeback {
				continue
			}
			if pass == 0 {
				freed += f.DropCleanPages(ctx, ind, n-freed)
				continue
			}
			// Second pass: write back then drop.
			if err := f.writebackInode(ctx, ind); err == nil {
				freed += f.DropCleanPages(ctx, ind, n-freed)
			}
		}
	}
	f.Stats.ReclaimedPages += uint64(freed)
	return freed
}

// MarkReachable marks every object the filesystem still references —
// each live inode's object tree plus the uncommitted journal buffers —
// for the sanitizer's kmemleak-style teardown scan.
func (f *FS) MarkReachable(s *alloc.Sanitizer) {
	if s == nil {
		return
	}
	f.ForEachInode(func(ind *Inode) bool {
		for _, o := range ind.Objects() {
			s.MarkReachable(uint64(o.ID))
		}
		return true
	})
	for _, op := range f.journalPending {
		if op.obj != nil {
			s.MarkReachable(uint64(op.obj.ID))
		}
	}
}

// Inodes reports the live inode count.
func (f *FS) Inodes() int { return len(f.inodes) }

// Lookup resolves a path to an inode via the dentry cache.
func (f *FS) lookupPath(ctx *kstate.Ctx, path string) (*Inode, bool) {
	if ino, ok := f.dcache[path]; ok {
		ind := f.inodes[ino]
		if ind != nil {
			f.Stats.DentryHits++
			// Dentry cache hit: touch the dentry object.
			f.Objs.Touch(ctx, ind.dentry, 0, false)
			return ind, true
		}
	}
	f.Stats.DentryMisses++
	ctx.Charge(pathWalkCost)
	return nil, false
}

// errNotFound reports a missing path.
func errNotFound(path string) error {
	return fmt.Errorf("fs: %s: no such file: %w", path, fault.ENOENT)
}

// CachePages reports total page-cache pages across all inodes.
func (f *FS) CachePages() int {
	n := 0
	//klocs:unordered commutative sum of per-inode page counts
	for _, ind := range f.inodes {
		n += ind.pages.Len()
	}
	return n
}

// ForEachInode visits inodes in creation order (deterministic).
func (f *FS) ForEachInode(fn func(*Inode) bool) {
	for _, ino := range f.inodeOrder {
		ind, ok := f.inodes[ino]
		if !ok {
			continue
		}
		if !fn(ind) {
			return
		}
	}
}
