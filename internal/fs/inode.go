package fs

import (
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/rbtree"
	"kloc/internal/sim"
)

// Inode is a simulated in-memory inode with its attached kernel
// objects: the inode slab object itself, its dentry, the radix-tree
// page cache, radix-tree interior nodes, and the extent map.
type Inode struct {
	Ino  uint64
	Path string
	// Refs counts open file descriptions; Nlink counts directory links.
	Refs, Nlink int

	inodeObj *kobj.Object
	dentry   *kobj.Object

	// pages is the page cache, page index -> PageCache object; the
	// object carries the page's Dirty and Prefetched flags, as a
	// struct page carries PG_dirty and PG_readahead. radixNodes maps a
	// radix slot (index / radixFanout) to its interior node, and
	// extents an extent base to its mapping.
	pages      *rbtree.Tree[int64, *kobj.Object]
	radixNodes *rbtree.Tree[int64, *kobj.Object]
	extents    *rbtree.Tree[int64, *kobj.Object]

	// Readahead state: last sequentially read index and streak length.
	lastRead int64
	streak   int

	// lastUsed is the most recent open/read/write time — the coldness
	// input to OOM victim scoring.
	lastUsed sim.Time

	// writeback is set while writeRuns submits the inode's dirty pages,
	// as PG_writeback marks a page in flight: Reclaim and EvictFrame
	// leave the inode's pages alone until it clears.
	writeback bool

	// SizePages is the logical file size in pages.
	SizePages int64
}

// newInode builds an empty in-memory inode (no kernel objects yet).
func (f *FS) newInode(ino uint64, path string) *Inode {
	return &Inode{
		Ino: ino, Path: path, Nlink: 1,
		pages:      f.nodes.New(),
		radixNodes: f.nodes.New(),
		extents:    f.nodes.New(),
		lastRead:   -2,
	}
}

// Open file handle.
type File struct {
	Inode *Inode
	// closed is set by the handle's first Close.
	closed bool
}

// Objects returns all kernel objects currently attached to the inode
// (for accounting and tests).
func (ind *Inode) Objects() []*kobj.Object {
	var out []*kobj.Object
	if ind.inodeObj != nil {
		out = append(out, ind.inodeObj)
	}
	if ind.dentry != nil {
		out = append(out, ind.dentry)
	}
	add := func(_ int64, o *kobj.Object) bool { out = append(out, o); return true }
	ind.radixNodes.Ascend(add)
	ind.pages.Ascend(add)
	ind.extents.Ascend(add)
	return out
}

// Create creates a new file: inode + dentry objects, a journal record
// for the metadata update, and the creation hooks (Fig 3b).
func (f *FS) Create(ctx *kstate.Ctx, path string) (*File, error) {
	ctx.Charge(syscallEntryCost)
	if ind, ok := f.lookupPath(ctx, path); ok {
		// Exists: behave like O_CREAT on an existing file.
		return f.openInode(ctx, ind), nil
	}
	ino := f.InoGen.Next()
	ind := f.newInode(ino, path)
	f.inodes[ino] = ind
	f.inodeOrder = append(f.inodeOrder, ino)
	f.dcache[path] = ino
	f.Hooks.InodeCreated(ctx, ino, false)

	var err error
	if ind.inodeObj, err = f.Objs.Alloc(ctx, kobj.Inode, ino); err != nil {
		return nil, err
	}
	if ind.dentry, err = f.Objs.Alloc(ctx, kobj.Dentry, ino); err != nil {
		return nil, err
	}
	f.Objs.Touch(ctx, ind.inodeObj, 0, true)
	f.Objs.Touch(ctx, ind.dentry, 0, true)
	if err := f.journalRecord(ctx, journalOp{kind: opCreate, ino: ino, path: path}); err != nil {
		return nil, err
	}
	f.Stats.Creates++
	return f.openInode(ctx, ind), nil
}

// Open opens an existing file.
func (f *FS) Open(ctx *kstate.Ctx, path string) (*File, error) {
	ctx.Charge(syscallEntryCost)
	ind, ok := f.lookupPath(ctx, path)
	if !ok {
		// Dentry miss: the path walk either finds the inode on "disk"
		// (we keep all inodes in memory; a real miss would re-read the
		// inode) or fails.
		ino, exists := f.findByPath(path)
		if !exists {
			return nil, errNotFound(path)
		}
		ind = f.inodes[ino]
		// Re-populate the dentry and inode caches (the inode object may
		// have been evicted by the dentry/inode shrinker).
		var err error
		if ind.inodeObj == nil {
			if ind.inodeObj, err = f.Objs.Alloc(ctx, kobj.Inode, ind.Ino); err != nil {
				return nil, err
			}
		}
		if ind.dentry == nil {
			if ind.dentry, err = f.Objs.Alloc(ctx, kobj.Dentry, ind.Ino); err != nil {
				return nil, err
			}
		}
		f.dcache[path] = ind.Ino
	}
	f.Stats.Opens++
	return f.openInode(ctx, ind), nil
}

func (f *FS) findByPath(path string) (uint64, bool) {
	// Creation-order scan: live paths are unique, so the order only
	// decides determinism of the walk itself.
	for _, ino := range f.inodeOrder {
		if ind, ok := f.inodes[ino]; ok && ind.Path == path {
			return ino, true
		}
	}
	return 0, false
}

func (f *FS) openInode(ctx *kstate.Ctx, ind *Inode) *File {
	ind.Refs++
	ind.lastUsed = ctx.Now
	f.Objs.Touch(ctx, ind.inodeObj, 0, false)
	f.Hooks.InodeOpened(ctx, ind.Ino)
	return &File{Inode: ind}
}

// Close drops the handle's reference; at zero the inode's KLOC turns
// cold (§3.2's first coldness trigger). The close that drops the last
// reference to an inode Unlink left open destroys it, as Unlink does
// for an inode nothing holds. A repeat Close of the same handle changes
// nothing: it counts no close, fires no hook and drops no reference
// another handle holds.
func (f *FS) Close(ctx *kstate.Ctx, file *File) {
	if file.closed {
		return
	}
	file.closed = true
	ctx.Charge(syscallEntryCost)
	ind := file.Inode
	last := ind.Refs == 1
	if ind.Refs > 0 {
		ind.Refs--
	}
	f.Stats.Closes++
	if ind.Refs == 0 {
		f.Hooks.InodeClosed(ctx, ind.Ino)
	}
	if last && ind.Nlink == 0 {
		f.destroyInode(ctx, ind)
	}
}

// Unlink removes the path; when the last link and last open reference
// are gone the inode's objects are deallocated — NOT migrated (§3.2's
// second rule).
func (f *FS) Unlink(ctx *kstate.Ctx, path string) error {
	ctx.Charge(syscallEntryCost)
	ino, ok := f.dcache[path]
	if !ok {
		var exists bool
		if ino, exists = f.findByPath(path); !exists {
			return errNotFound(path)
		}
	}
	ind := f.inodes[ino]
	delete(f.dcache, path)
	if ind.Nlink > 0 {
		ind.Nlink--
	}
	if ind.Nlink == 0 {
		// Fully unlinked: unreachable by path even while held open.
		ind.Path = ""
	}
	if err := f.journalRecord(ctx, journalOp{kind: opUnlink, ino: ino}); err != nil {
		return err
	}
	f.Stats.Unlinks++
	if ind.Nlink == 0 && ind.Refs == 0 {
		f.destroyInode(ctx, ind)
	}
	return nil
}

// freeTree frees every object of an inode tree in key order, empties
// the tree and reports how many it freed. Slab free order decides
// partial-list state and hence where later allocations land, so the
// order is simulation state.
func (f *FS) freeTree(ctx *kstate.Ctx, t *rbtree.Tree[int64, *kobj.Object]) int {
	n := t.Len()
	t.Ascend(func(_ int64, o *kobj.Object) bool {
		f.Objs.Free(o, ctx)
		return true
	})
	t.Clear()
	return n
}

// destroyInode frees every kernel object attached to the inode.
func (f *FS) destroyInode(ctx *kstate.Ctx, ind *Inode) {
	f.freeTree(ctx, ind.pages)
	f.freeTree(ctx, ind.radixNodes)
	f.freeTree(ctx, ind.extents)
	f.Objs.Free(ind.dentry, ctx)
	f.Objs.Free(ind.inodeObj, ctx)
	ind.dentry, ind.inodeObj = nil, nil
	f.Objs.DropArena(ind.Ino) // all objects freed above: the arena is empty
	delete(f.inodes, ind.Ino)
	for i, ino := range f.inodeOrder {
		if ino == ind.Ino {
			f.inodeOrder = append(f.inodeOrder[:i], f.inodeOrder[i+1:]...)
			break
		}
	}
	f.Hooks.InodeDeleted(ctx, ind.Ino)
}

// radixNode returns (allocating on demand) the radix-tree node covering
// a page index, charging the traversal.
func (f *FS) radixNode(ctx *kstate.Ctx, ind *Inode, idx int64) (*kobj.Object, error) {
	slot := idx / radixFanout
	if o, ok := ind.radixNodes.Get(slot); ok {
		f.Objs.Touch(ctx, o, 64, false)
		return o, nil
	}
	o, err := f.Objs.Alloc(ctx, kobj.RadixNode, ind.Ino)
	if err != nil {
		return nil, err
	}
	ind.radixNodes.Set(slot, o)
	f.Objs.Touch(ctx, o, 64, true)
	return o, nil
}

// extentFor returns (allocating on demand) the extent mapping covering
// a page index.
func (f *FS) extentFor(ctx *kstate.Ctx, ind *Inode, idx int64) (*kobj.Object, error) {
	base := idx / extentSpan
	if o, ok := ind.extents.Get(base); ok {
		f.Objs.Touch(ctx, o, 0, false)
		return o, nil
	}
	o, err := f.Objs.Alloc(ctx, kobj.Extent, ind.Ino)
	if err != nil {
		return nil, err
	}
	ind.extents.Set(base, o)
	f.Objs.Touch(ctx, o, 0, true)
	return o, nil
}
