package fs

import (
	"math/bits"

	"kloc/internal/kobj"
)

// An xarray indexes an inode's objects by page index the way the
// kernel's xarray (lib/xarray.c) indexes a page cache: a tree of
// 64-slot nodes, each level taking six bits of the index, as tall as
// the largest index stored needs. A leaf holds the objects, an
// interior node its children. Each node keeps a bitmap of its occupied
// slots and a dirty bitmap: a leaf's marks its dirty entries, an
// interior node's the children holding any, so the mark is summarised
// up the path as xa_set_mark does for PAGECACHE_TAG_DIRTY and a walk
// over marked entries skips every clean subtree. The zero value is
// empty. Nodes come from, and go back to, the filesystem's free list.
type xarray struct {
	root   *xaNode
	height uint // levels, leaf included; 0 when empty
	count  int
}

const (
	xaShift = 6
	xaSlots = 1 << xaShift
	xaMask  = xaSlots - 1
	// xaMaxHeight levels cover every uint64 index.
	xaMaxHeight = (64 + xaShift - 1) / xaShift
)

// An xaNode is a leaf when the array's height puts it on the bottom
// level: objs holds its entries and kids stays empty. Otherwise kids
// holds its children and objs stays empty.
type xaNode struct {
	objs  [xaSlots]*kobj.Object
	kids  [xaSlots]*xaNode
	used  uint64
	dirty uint64
	// next links the node on the free list.
	next *xaNode
}

// xaNodes is the free list every inode's index takes its nodes from. A
// node goes back zeroed once it empties, so it brings no entry or mark
// to the index that takes it next.
type xaNodes struct{ free *xaNode }

func (l *xaNodes) get() *xaNode {
	n := l.free
	if n == nil {
		return new(xaNode)
	}
	l.free, n.next = n.next, nil
	return n
}

func (l *xaNodes) put(n *xaNode) {
	*n = xaNode{next: l.free}
	l.free = n
}

// An xaFilter selects the entries find visits.
type xaFilter uint8

const (
	xaAll xaFilter = iota
	xaMarked
	xaUnmarked
)

// covers reports whether the array's height reaches idx.
func (x *xarray) covers(idx uint64) bool { return idx>>(xaShift*x.height) == 0 }

// Len reports the number of entries.
func (x *xarray) Len() int { return x.count }

// leaf returns the leaf holding idx's slot, or nil.
func (x *xarray) leaf(idx uint64) *xaNode {
	if x.root == nil || !x.covers(idx) {
		return nil
	}
	n := x.root
	for shift := xaShift * (x.height - 1); shift > 0 && n != nil; shift -= xaShift {
		n = n.kids[idx>>shift&xaMask]
	}
	return n
}

// get returns the entry at idx, or nil.
func (x *xarray) get(idx uint64) *kobj.Object {
	if n := x.leaf(idx); n != nil {
		return n.objs[idx&xaMask]
	}
	return nil
}

// marked reports whether idx holds a marked entry.
func (x *xarray) marked(idx uint64) bool {
	n := x.leaf(idx)
	return n != nil && n.dirty&(1<<(idx&xaMask)) != 0
}

// set stores o at idx, growing the array and taking nodes from l as
// needed. An entry it replaces keeps its mark.
func (x *xarray) set(l *xaNodes, idx uint64, o *kobj.Object) {
	if x.root == nil {
		x.root, x.height = l.get(), 1
		for !x.covers(idx) {
			x.height++
		}
	}
	for !x.covers(idx) {
		n := l.get()
		n.kids[0], n.used = x.root, 1
		if x.root.dirty != 0 {
			n.dirty = 1
		}
		x.root = n
		x.height++
	}
	n := x.root
	for shift := xaShift * (x.height - 1); shift > 0; shift -= xaShift {
		i := idx >> shift & xaMask
		if n.kids[i] == nil {
			n.kids[i] = l.get()
			n.used |= 1 << i
		}
		n = n.kids[i]
	}
	bit := uint64(1) << (idx & xaMask)
	if n.used&bit == 0 {
		n.used |= bit
		x.count++
	}
	n.objs[idx&xaMask] = o
}

// path fills p with the nodes from the root down to idx's leaf and
// reports whether that leaf holds an entry at idx.
func (x *xarray) path(idx uint64, p *[xaMaxHeight]*xaNode) bool {
	if x.root == nil || !x.covers(idx) {
		return false
	}
	n := x.root
	for lvl, shift := uint(0), xaShift*(x.height-1); ; lvl, shift = lvl+1, shift-xaShift {
		p[lvl] = n
		if shift == 0 {
			return n.used&(1<<(idx&xaMask)) != 0
		}
		if n = n.kids[idx>>shift&xaMask]; n == nil {
			return false
		}
	}
}

// slot is idx's slot in the node at level lvl (the root is level 0).
func (x *xarray) slot(idx uint64, lvl uint) uint64 {
	return idx >> (xaShift * (x.height - 1 - lvl)) & xaMask
}

// mark sets the mark of the entry at idx, if there is one, and on the
// path above it. A marked entry's path is marked already.
func (x *xarray) mark(idx uint64) {
	var p [xaMaxHeight]*xaNode
	if !x.path(idx, &p) || p[x.height-1].dirty&(1<<(idx&xaMask)) != 0 {
		return
	}
	for lvl := uint(0); lvl < x.height; lvl++ {
		p[lvl].dirty |= 1 << x.slot(idx, lvl)
	}
}

// clearMark clears the mark of the entry at idx and, bottom up, the
// summary bit of every node left with no mark below it.
func (x *xarray) clearMark(idx uint64) {
	var p [xaMaxHeight]*xaNode
	if !x.path(idx, &p) {
		return
	}
	for lvl := int(x.height) - 1; lvl >= 0; lvl-- {
		p[lvl].dirty &^= 1 << x.slot(idx, uint(lvl))
		if p[lvl].dirty != 0 {
			return
		}
	}
}

// del removes and returns the entry at idx (nil if there is none),
// giving every node it empties back to l and shrinking the height
// while the root holds only slot 0.
func (x *xarray) del(l *xaNodes, idx uint64) *kobj.Object {
	var p [xaMaxHeight]*xaNode
	if !x.path(idx, &p) {
		return nil
	}
	i := idx & xaMask
	leaf := p[x.height-1]
	o := leaf.objs[i]
	leaf.objs[i] = nil
	leaf.used &^= 1 << i
	leaf.dirty &^= 1 << i
	x.count--
	for lvl := int(x.height) - 2; lvl >= 0; lvl-- {
		n, child, i := p[lvl], p[lvl+1], x.slot(idx, uint(lvl))
		if child.dirty == 0 {
			n.dirty &^= 1 << i
		}
		if child.used == 0 {
			n.kids[i] = nil
			n.used &^= 1 << i
			l.put(child)
		}
	}
	if x.root.used == 0 {
		l.put(x.root)
		*x = xarray{}
		return o
	}
	for x.height > 1 && x.root.used == 1 {
		old := x.root
		x.root = old.kids[0]
		x.height--
		l.put(old)
	}
	return o
}

// find returns the first entry at or after index from that f selects,
// with its index, or nil when there is none. It keeps no cursor, so a
// loop may delete the entry it was handed before it asks for the next.
func (x *xarray) find(from uint64, f xaFilter) (uint64, *kobj.Object) {
	if x.root == nil || !x.covers(from) {
		return 0, nil
	}
	return x.root.find(xaShift*(x.height-1), from, f)
}

func (n *xaNode) find(shift uint, from uint64, f xaFilter) (uint64, *kobj.Object) {
	b := n.used
	switch {
	case f == xaMarked:
		b = n.dirty
	case f == xaUnmarked && shift == 0:
		b &^= n.dirty
	}
	first := from >> shift & xaMask
	b &^= 1<<first - 1
	// base is the first index of this node's span.
	base := from >> shift >> xaShift << xaShift << shift
	for ; b != 0; b &= b - 1 {
		i := uint64(bits.TrailingZeros64(b))
		if shift == 0 {
			return base | i, n.objs[i]
		}
		start := base | i<<shift
		if i == first {
			start = from
		}
		if idx, o := n.kids[i].find(shift-xaShift, start, f); o != nil {
			return idx, o
		}
	}
	return 0, nil
}
