// Package kobj defines the kernel-object taxonomy of the paper's
// Table 1: the filesystem and networking objects whose placement KLOCs
// manage, together with their size, domain, and allocation class.
//
// Objects are the unit the KLOC abstraction tracks: each live object
// references the page frame(s) it occupies and (once associated) the
// knode of the file or socket it belongs to.
package kobj

import (
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Type enumerates Table 1's kernel object structures.
type Type uint8

// Kernel object types (Table 1).
const (
	Inode      Type = iota // per-file inode (FS + network: sockets are files)
	Block                  // block I/O structure (bio)
	Journal                // filesystem journal buffer
	PageCache              // buffer-cache page
	Dentry                 // name resolution entry
	Extent                 // contiguous-disk-block grouping
	BlkMQ                  // block-layer multi-queue structure
	Sock                   // socket object
	SkBuff                 // packet-buffer header
	SkBuffData             // packet data buffer
	RxBuf                  // network receive driver buffer
	RadixNode              // page-cache radix-tree node (§3.1)
	numTypes
)

// AllocClass says which allocator creates objects of a type (§3.3).
type AllocClass uint8

// Allocation classes.
const (
	AllocSlab AllocClass = iota // kmalloc/kmem_cache_alloc: fast, pinned
	AllocPage                   // page allocator: relocatable
)

// Info describes a kernel object type.
type Info struct {
	Name  string
	Size  int // bytes per object
	Alloc AllocClass
}

var infos = [numTypes]Info{
	Inode:      {"inode", 600, AllocSlab},
	Block:      {"block", 256, AllocSlab},
	Journal:    {"journal", 1024, AllocSlab},
	PageCache:  {"page_cache", memsim.PageSize, AllocPage},
	Dentry:     {"dentry", 192, AllocSlab},
	Extent:     {"extent", 96, AllocSlab},
	BlkMQ:      {"blk_mq", 512, AllocSlab},
	Sock:       {"sock", 1024, AllocSlab},
	SkBuff:     {"skbuff", 232, AllocSlab},
	SkBuffData: {"skbuff_data", 2048, AllocPage},
	RxBuf:      {"rx_buf", memsim.PageSize, AllocPage},
	RadixNode:  {"radix_node", 576, AllocSlab},
}

// Info returns the descriptor for a type.
func (t Type) Info() Info { return infos[t] }

// String returns the Table-1 name.
func (t Type) String() string { return infos[t].Name }

// Types returns all Table-1 object types in declaration order.
func Types() []Type {
	out := make([]Type, numTypes)
	for i := range out {
		out[i] = Type(i)
	}
	return out
}

// Group buckets types for the Fig 5c sensitivity study, which
// incrementally adds KLOC support for page caches, journals, slab
// objects, socket buffers, and block I/O.
type Group uint8

// Fig 5c groups.
const (
	GroupPageCache Group = iota
	GroupJournal
	GroupSlab
	GroupSockBuf
	GroupBlockIO
	numGroups
)

func (g Group) String() string {
	switch g {
	case GroupPageCache:
		return "page-cache"
	case GroupJournal:
		return "journal"
	case GroupSlab:
		return "slab"
	case GroupSockBuf:
		return "socket-buffers"
	default:
		return "block-io"
	}
}

// Groups returns the Fig 5c groups in the paper's cumulative order.
func Groups() []Group {
	return []Group{GroupPageCache, GroupJournal, GroupSlab, GroupSockBuf, GroupBlockIO}
}

// GroupOf maps a type to its sensitivity group.
func GroupOf(t Type) Group {
	switch t {
	case PageCache, RadixNode:
		return GroupPageCache
	case Journal:
		return GroupJournal
	case Inode, Dentry, Extent:
		return GroupSlab
	case Sock, SkBuff, SkBuffData, RxBuf:
		return GroupSockBuf
	default: // Block, BlkMQ
		return GroupBlockIO
	}
}

// ID identifies a live kernel object.
type ID uint64

// Freer is the allocator an object's frame returns to: the memory
// system itself for page-allocated objects, a slab cache or an arena
// for the rest.
type Freer interface {
	Free(*memsim.Frame)
}

// Object is a live kernel object instance.
//
// Released objects are recycled: their allocator rewrites the struct
// in place for a later object (Reset). IDs are never reused, so the ID
// is the struct's generation, and an index entry keyed by the ID it
// was added under tells a recycled struct from its own object.
type Object struct {
	ID   ID
	Type Type
	// Prefetched is a page-cache page's PG_readahead: brought in by
	// readahead and not yet demanded. It sits in the padding after
	// Type. A page's dirty state is not on the object but its mark in
	// the page-cache index (fs), as PAGECACHE_TAG_DIRTY marks a page in
	// the kernel's: writeback asks the index for marked pages, never
	// the object or its frame.
	Prefetched bool
	Size       int
	Frame      *memsim.Frame
	// Knode is the owning KLOC (0 until associated).
	Knode uint64
	Born  sim.Time
	// from is the allocator the frame came from.
	from Freer
}

// NewObject constructs an object occupying the given frame of
// allocator from (may be nil). Release frees the frame to it once.
func NewObject(id ID, t Type, frame *memsim.Frame, born sim.Time, from Freer) *Object {
	o := new(Object)
	o.Reset(id, t, frame, born, from)
	return o
}

// Reset rewrites every field of o as NewObject would build it, so a
// released object's struct can serve a new object: nothing of its
// last use (knode, page flags) survives.
func (o *Object) Reset(id ID, t Type, frame *memsim.Frame, born sim.Time, from Freer) {
	*o = Object{ID: id, Type: t, Size: t.Info().Size, Frame: frame, Born: born, from: from}
}

// Release returns the object's storage to its allocator and reports
// whether this call did so; a second call does nothing and reports
// false. The frame pointer is cleared so that any index entry that
// outlives the object (for example a KLOC tree slot left behind by a
// late re-association) reads "no storage" instead of aliasing a frame
// the allocator may recycle, until the struct itself is recycled.
func (o *Object) Release() bool {
	released := o.from != nil
	if released {
		o.from.Free(o.Frame)
		o.from = nil
	}
	o.Frame = nil
	return released
}
