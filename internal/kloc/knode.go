// Package kloc implements the paper's contribution: kernel-level
// object contexts. A KLOC is the set of kernel objects associated with
// one file or socket inode; its anchor is a knode (§4.2), a 64-byte
// structure pointed to by the inode that indexes every associated
// kernel object in two red-black trees — rbtree-cache for page-sized
// objects from non-slab allocators and rbtree-slab for small
// slab-class objects (§4.2.3).
//
// All knodes are tracked by a global kmap (a red-black tree keyed by
// inode number), with per-CPU fast-path lists acting as a software
// cache of the kmap (§4.3). The Registry type owns all of this and
// exposes the Table-2 API.
package kloc

import (
	"kloc/internal/alloc"
	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/percpu"
	"kloc/internal/rbtree"
	"kloc/internal/sim"
)

// KnodeID identifies a knode.
type KnodeID uint64

// treeRefCost is the virtual cost of one pointer chase during a
// red-black tree traversal (§4.2.3 measures ~10 memory references per
// traversal on a single large tree — the split-tree design exists to
// shrink this).
const treeRefCost sim.Duration = 5

// knodeStructBytes is the size of the knode structure itself (§7.1:
// "64 byte KLOC structure attached to each open inode").
const knodeStructBytes = 64

// objPointerBytes is the red-black tree pointer overhead per tracked
// object (§7.1: "8 byte RB-tree pointer for each cache page and slab
// object").
const objPointerBytes = 8

// Knode is the per-inode table of contents over kernel objects.
type Knode struct {
	ID KnodeID
	// Active (the paper's `inuse`): true while the file/socket is open.
	Active bool
	// Age grows as LRU scans pass without a touch and resets on one
	// (§4.3): the knode's recency.
	Age int

	rbCache *rbtree.Tree[kobj.ID, *kobj.Object]
	rbSlab  *rbtree.Tree[kobj.ID, *kobj.Object]

	// frame is the knode's own slab storage; knodes are deliberately
	// slab-allocated for speed and are not migratable (§4.2.2).
	frame *memsim.Frame
}

// lookupCost models a traversal of one of the knode's trees.
func lookupCost(depth int) sim.Duration {
	if depth < 1 {
		depth = 1
	}
	return sim.Duration(depth) * treeRefCost
}

// AddObject indexes a kernel object under the knode (knode_add_obj),
// choosing the tree by the object's allocation class, and returns the
// virtual cost. The object's Knode field is stamped.
func (k *Knode) AddObject(o *kobj.Object) sim.Duration {
	o.Knode = uint64(k.ID)
	t := k.treeFor(o)
	t.Set(o.ID, o)
	return lookupCost(t.Depth())
}

// RemoveObject drops an object from the knode's index.
func (k *Knode) RemoveObject(o *kobj.Object) sim.Duration {
	t := k.treeFor(o)
	cost := lookupCost(t.Depth())
	t.Delete(o.ID)
	if o.Knode == uint64(k.ID) {
		o.Knode = 0
	}
	return cost
}

func (k *Knode) treeFor(o *kobj.Object) *rbtree.Tree[kobj.ID, *kobj.Object] {
	if o.Type.Info().Alloc == kobj.AllocSlab {
		return k.rbSlab
	}
	return k.rbCache
}

// recycled reports whether a tree entry outlived its object: the
// object was freed without the knode seeing it (the knode was already
// deleted, or the object had moved to another knode) and its struct
// now serves a later object. Object IDs are never reused, so the ID is
// the struct's generation, and the entry's key no longer matches it.
// An entry whose object is freed but not yet recycled matches, and
// reads Frame == nil. Every walk over the trees skips recycled entries.
func recycled(id kobj.ID, o *kobj.Object) bool { return o.ID != id }

// IterCache iterates the rbtree-cache objects (itr_knode_cache).
func (k *Knode) IterCache(fn func(*kobj.Object) bool) {
	k.rbCache.Ascend(func(id kobj.ID, o *kobj.Object) bool { return recycled(id, o) || fn(o) })
}

// IterSlab iterates the rbtree-slab objects (itr_knode_slab).
func (k *Knode) IterSlab(fn func(*kobj.Object) bool) {
	k.rbSlab.Ascend(func(id kobj.ID, o *kobj.Object) bool { return recycled(id, o) || fn(o) })
}

// MovableFrames collects the distinct, relocatable frames backing the
// knode's objects — the unit the migration engine moves en masse
// (§4.4). Slab-pinned frames are excluded.
func (k *Knode) MovableFrames() []*memsim.Frame {
	seen := make(map[memsim.FrameID]struct{})
	var out []*memsim.Frame
	collect := func(id kobj.ID, o *kobj.Object) bool {
		f := o.Frame
		if recycled(id, o) || f == nil || f.Pinned {
			return true
		}
		if _, dup := seen[f.ID]; dup {
			return true
		}
		seen[f.ID] = struct{}{}
		out = append(out, f)
		return true
	}
	k.rbCache.Ascend(collect)
	k.rbSlab.Ascend(collect)
	return out
}

// HasMovableFrame reports whether some frame MovableFrames would return
// satisfies pred. It stops at the first match and builds no list, so
// open-time and daemon checks cost no allocation.
func (k *Knode) HasMovableFrame(pred func(*memsim.Frame) bool) bool {
	found := false
	match := func(id kobj.ID, o *kobj.Object) bool {
		f := o.Frame
		found = !recycled(id, o) && f != nil && !f.Pinned && pred(f)
		return !found
	}
	k.rbCache.Ascend(match)
	if !found {
		k.rbSlab.Ascend(match)
	}
	return found
}

// metadataBytes is the knode's contribution to Table 6.
func (k *Knode) metadataBytes() int {
	return knodeStructBytes + objPointerBytes*(k.rbCache.Len()+k.rbSlab.Len())
}

// percpuEntryBytes sizes a per-CPU list entry (pointer + age).
const percpuEntryBytes = 16

// Registry is the global KLOC state: the kmap, the per-CPU fast paths,
// and the knode slab.
type Registry struct {
	kmap *rbtree.Tree[uint64, *Knode]
	// objNodes recycles the nodes of every knode's object trees, which
	// die with their knodes.
	objNodes rbtree.Pool[kobj.ID, *kobj.Object]
	// byID is the dense ID index: knode IDs are monotonic from 1, so the
	// ID is the slot — no per-op map hash on the free/touch path.
	byID   []*Knode
	fast   *percpu.Lists[*Knode]
	slab   *alloc.SlabCache
	nextID KnodeID

	// SplitTrees controls the rbtree-cache/rbtree-slab split; disabling
	// it (single tree per knode) is the paper's rejected design, kept
	// for the ablation bench.
	SplitTrees bool
	// FastPathEnabled controls the per-CPU lists (§4.3 ablation).
	FastPathEnabled bool

	// migrationList tracks pages queued for migration (Table 6 counts
	// its memory).
	migrationList int
}

// perCPUListCap bounds each CPU's fast-path list; restricting the size
// keeps traversals fast (§4.3).
const perCPUListCap = 64

// NewRegistry builds the KLOC state over a memory system with the given
// CPU count. Knode storage comes from a dedicated (pinned, ClassMeta)
// slab cache placed on the given fallback order — the paper always
// allocates knodes to fast memory (§4.2.2).
func NewRegistry(mem *memsim.Memory, cpus int) *Registry {
	// knodeStructBytes is a compile-time-known valid size, so the only
	// failure is programmer error; a nil slab makes MapKnode return
	// EINVAL and the policy degrade to untracked inodes.
	slab, err := alloc.NewSlabCache(mem, "knode", knodeStructBytes)
	if err == nil {
		slab.Class = memsim.ClassMeta
	}
	return &Registry{
		kmap:            rbtree.New[uint64, *Knode](),
		byID:            make([]*Knode, 1), // slot 0 unused: IDs start at 1
		fast:            percpu.New[*Knode](cpus, perCPUListCap),
		slab:            slab,
		nextID:          1,
		SplitTrees:      true,
		FastPathEnabled: true,
	}
}

// knodeByID resolves an ID through the dense index.
func (r *Registry) knodeByID(id KnodeID) (*Knode, bool) {
	i := int(id)
	if i <= 0 || i >= len(r.byID) || r.byID[i] == nil {
		return nil, false
	}
	return r.byID[i], true
}

// indexByID records a new knode in the ID index.
func (r *Registry) indexByID(kn *Knode) {
	for len(r.byID) <= int(kn.ID) {
		r.byID = append(r.byID, nil)
	}
	r.byID[kn.ID] = kn
}

// unindexByID drops a knode from the ID index.
func (r *Registry) unindexByID(kn *Knode) {
	if int(kn.ID) < len(r.byID) {
		r.byID[kn.ID] = nil
	}
}

// Len reports the number of live knodes.
func (r *Registry) Len() int { return r.kmap.Len() }

// MapKnode creates (or returns) the knode for an inode (map_knode +
// add_to_kmap). Knodes are born active. The returned cost covers slab
// allocation and kmap insertion.
func (r *Registry) MapKnode(inode uint64, allocOrder []memsim.NodeID, now sim.Time) (*Knode, sim.Duration, error) {
	if kn, ok := r.kmap.Get(inode); ok {
		kn.Active = true
		kn.Age = 0
		return kn, lookupCost(r.kmap.Depth()), nil
	}
	if r.slab == nil {
		return nil, 0, fault.EINVAL
	}
	frame, cost, err := r.slab.Alloc(allocOrder, now)
	if err != nil {
		return nil, 0, err
	}
	kn := &Knode{
		ID:      r.nextID,
		Active:  true,
		rbCache: r.objNodes.New(),
		rbSlab:  r.objNodes.New(),
		frame:   frame,
	}
	if !r.SplitTrees {
		// Ablation: one shared tree.
		kn.rbSlab = kn.rbCache
	}
	r.nextID++
	r.kmap.Set(inode, kn)
	r.indexByID(kn)
	return kn, cost + lookupCost(r.kmap.Depth()), nil
}

// Lookup finds the knode for an inode, consulting the per-CPU fast path
// first. It returns the knode, the virtual cost, and whether it exists.
func (r *Registry) Lookup(cpu int, inode uint64) (*Knode, sim.Duration, bool) {
	kn, ok := r.kmap.Get(inode) // index lookup to identify the knode
	if !ok {
		return nil, lookupCost(r.kmap.Depth()), false
	}
	kn.Age = 0
	// Fast path: scan cpu's list (bounded, cheap). A hit costs a short
	// list walk instead of a tree descent.
	if r.FastPathEnabled && r.fast.Touch(cpu, kn) {
		return kn, treeRefCost * 2, true
	}
	return kn, lookupCost(r.kmap.Depth()), true
}

// AddObject indexes an object under the inode's knode (knode_add_obj
// from a syscall path). Missing knodes are a no-op (KLOC disabled for
// that file).
func (r *Registry) AddObject(cpu int, inode uint64, o *kobj.Object) sim.Duration {
	kn, cost, ok := r.Lookup(cpu, inode)
	if !ok {
		return cost
	}
	return cost + kn.AddObject(o)
}

// RemoveObject unindexes an object (object freed).
func (r *Registry) RemoveObject(o *kobj.Object) sim.Duration {
	if o.Knode == 0 {
		return 0
	}
	kn, ok := r.knodeByID(KnodeID(o.Knode))
	if !ok {
		return 0
	}
	return kn.RemoveObject(o)
}

// Deactivate marks the inode's knode inactive (file/socket closed,
// §3.2: its objects become migration candidates immediately).
func (r *Registry) Deactivate(inode uint64) (*Knode, bool) {
	kn, ok := r.kmap.Get(inode)
	if !ok {
		return nil, false
	}
	kn.Active = false
	return kn, true
}

// Activate marks the inode's knode active again (file reopened).
func (r *Registry) Activate(cpu int, inode uint64) (*Knode, bool) {
	kn, ok := r.kmap.Get(inode)
	if !ok {
		return nil, false
	}
	kn.Active = true
	kn.Age = 0
	if r.FastPathEnabled {
		r.fast.Touch(cpu, kn)
	}
	return kn, true
}

// Delete removes the inode's knode entirely (inode deleted — objects
// are deallocated, not migrated, §3.2). The caller is responsible for
// freeing the member objects; Delete only drops the index.
func (r *Registry) Delete(inode uint64) sim.Duration {
	kn, ok := r.kmap.Get(inode)
	if !ok {
		return 0
	}
	cost := lookupCost(r.kmap.Depth())
	r.kmap.Delete(inode)
	r.unindexByID(kn)
	r.fast.Invalidate(kn)
	r.slab.Free(kn.frame)
	kn.frame = nil
	return cost
}

// Get returns the knode for an inode without touching recency state.
func (r *Registry) Get(inode uint64) (*Knode, bool) { return r.kmap.Get(inode) }

// TouchID refreshes a knode's recency by ID (used when a page access is
// attributed to its KLOC via the frame's knode stamp).
func (r *Registry) TouchID(id KnodeID, cpu int) {
	kn, ok := r.knodeByID(id)
	if !ok {
		return
	}
	kn.Age = 0
	if r.FastPathEnabled {
		r.fast.Touch(cpu, kn)
	}
}

// AgeScan ages every knode on every CPU's fast-path list and the global
// kmap (the LRU engine's periodic pass, §4.3). Returns the cost.
func (r *Registry) AgeScan() sim.Duration {
	var cost sim.Duration
	if r.FastPathEnabled {
		for cpu := 0; cpu < r.fast.CPUs(); cpu++ {
			r.fast.AgeScan(cpu, nil)
			cost += treeRefCost
		}
	}
	r.kmap.Ascend(func(_ uint64, kn *Knode) bool {
		kn.Age++
		cost += treeRefCost
		return true
	})
	return cost
}

// ColdKnodes returns knodes that are migration candidates: inactive, or
// active but aged past the threshold (get_LRU_knodes).
func (r *Registry) ColdKnodes(ageThreshold int) []*Knode {
	var out []*Knode
	r.kmap.Ascend(func(_ uint64, kn *Knode) bool {
		if !kn.Active || kn.Age >= ageThreshold {
			out = append(out, kn)
		}
		return true
	})
	return out
}

// ActiveKnodes returns currently active knodes (AutoNUMA+KLOC walks
// these to co-locate kernel objects with the task, §4.5).
func (r *Registry) ActiveKnodes() []*Knode {
	var out []*Knode
	r.kmap.Ascend(func(_ uint64, kn *Knode) bool {
		if kn.Active {
			out = append(out, kn)
		}
		return true
	})
	return out
}

// FindCPU returns a CPU that recently touched the knode (find_cpu), or
// -1.
func (r *Registry) FindCPU(kn *Knode) int { return r.fast.LastCPU(kn) }

// FastPathHitRate exposes the §4.3 ablation metric.
func (r *Registry) FastPathHitRate() float64 { return r.fast.HitRate() }

// SetMigrationListLen records the current migration queue length for
// Table-6 accounting.
func (r *Registry) SetMigrationListLen(n int) { r.migrationList = n }

// MetadataBytes reports the KLOC metadata footprint (Table 6): knode
// structs, 8-byte tree pointers per object, per-CPU list entries, and
// the migration list.
func (r *Registry) MetadataBytes() int {
	total := 0
	r.kmap.Ascend(func(_ uint64, kn *Knode) bool {
		total += kn.metadataBytes()
		return true
	})
	if r.FastPathEnabled {
		for cpu := 0; cpu < r.fast.CPUs(); cpu++ {
			total += r.fast.Len(cpu) * percpuEntryBytes
		}
	}
	total += r.migrationList * objPointerBytes
	return total
}
