// Package rbtree implements a generic red-black tree.
//
// The paper leans on Linux's rbtree for every index in the KLOC design:
// the global kmap of knodes, the per-knode rbtree-cache and rbtree-slab
// object indexes, and ext4-style extent maps (§4.2). This package is the
// equivalent substrate: an intrusive-free, generics-based red-black tree
// with ordered iteration, used by kloc and fs.
//
// The implementation is the classic CLRS algorithm with a sentinel nil
// leaf, augmented with each node's subtree height so Depth is O(1).
// Nodes come from a Pool that Delete and Clear give them back to, the
// way a kmem_cache recycles its objects.
// Invariants (validated by Check, used in property tests):
//
//  1. every node is red or black;
//  2. the root is black;
//  3. red nodes have black children;
//  4. every root-to-leaf path has the same number of black nodes;
//  5. in-order traversal yields keys in strictly increasing order;
//  6. every node's height is one more than its taller child's, and the
//     sentinel's is 0.
package rbtree

import "cmp"

type color bool

const (
	red   color = false
	black color = true
)

type node[K cmp.Ordered, V any] struct {
	key                 K
	value               V
	left, right, parent *node[K, V]
	color               color
	height              int32 // of the subtree rooted here; sentinel 0
}

// Tree is an ordered map from K to V. The zero value is not usable; call
// New or Pool.New.
type Tree[K cmp.Ordered, V any] struct {
	root *node[K, V]
	nil_ *node[K, V] // sentinel leaf
	size int
	pool *Pool[K, V]
}

// Pool recycles tree nodes: Delete and Clear push the nodes they remove
// and Set pops one before it allocates. Trees that share a pool share
// their freed nodes, so one owner's many short-lived trees (a knode's
// object indexes, a file's page tree) feed each other, and a tree that
// is dropped after Clear leaves its nodes behind for the next. The zero
// value is an empty pool. Like a tree, a pool is not safe for
// concurrent use.
type Pool[K cmp.Ordered, V any] struct {
	free *node[K, V] // linked through parent
}

// New returns an empty tree with a pool of its own.
func New[K cmp.Ordered, V any]() *Tree[K, V] { return new(Pool[K, V]).New() }

// New returns an empty tree that takes its nodes from p.
func (p *Pool[K, V]) New() *Tree[K, V] {
	sentinel := &node[K, V]{color: black}
	return &Tree[K, V]{root: sentinel, nil_: sentinel, pool: p}
}

// newNode returns a red leaf under parent, popped from the pool when it
// holds one. Every field is written, so nothing of the node's last use
// survives.
func (t *Tree[K, V]) newNode(key K, value V, parent *node[K, V]) *node[K, V] {
	n := t.pool.free
	if n == nil {
		n = new(node[K, V])
	} else {
		t.pool.free = n.parent
	}
	*n = node[K, V]{key: key, value: value, left: t.nil_, right: t.nil_, parent: parent, color: red}
	return n
}

// release pushes a node that no tree links to any more onto the pool,
// zeroing it first so the pool holds no key or value alive.
func (t *Tree[K, V]) release(n *node[K, V]) {
	*n = node[K, V]{parent: t.pool.free}
	t.pool.free = n
}

// Len reports the number of entries.
func (t *Tree[K, V]) Len() int { return t.size }

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.lookup(key)
	if n == t.nil_ {
		var zero V
		return zero, false
	}
	return n.value, true
}

func (t *Tree[K, V]) lookup(key K) *node[K, V] {
	n := t.root
	for n != t.nil_ {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n
		}
	}
	return t.nil_
}

// Set inserts or replaces the value under key. It reports whether the
// key was newly inserted.
func (t *Tree[K, V]) Set(key K, value V) bool {
	parent := t.nil_
	n := t.root
	for n != t.nil_ {
		parent = n
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			n.value = value
			return false
		}
	}
	fresh := t.newNode(key, value, parent)
	switch {
	case parent == t.nil_:
		t.root = fresh
	case key < parent.key:
		parent.left = fresh
	default:
		parent.right = fresh
	}
	t.size++
	t.fixHeights(fresh)
	t.insertFixup(fresh)
	return true
}

// Delete removes key, reporting whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	z := t.lookup(key)
	if z == t.nil_ {
		return false
	}
	t.deleteNode(z)
	t.release(z)
	t.size--
	return true
}

// Ascend calls fn for each entry in increasing key order until fn
// returns false. fn must not mutate the tree.
func (t *Tree[K, V]) Ascend(fn func(K, V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == t.nil_ {
		return true
	}
	if !t.ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return t.ascend(n.right, fn)
}

// AscendRange calls fn for entries with lo <= key < hi in order.
func (t *Tree[K, V]) AscendRange(lo, hi K, fn func(K, V) bool) {
	t.ascendRange(t.root, lo, hi, fn)
}

func (t *Tree[K, V]) ascendRange(n *node[K, V], lo, hi K, fn func(K, V) bool) bool {
	if n == t.nil_ {
		return true
	}
	if n.key >= lo {
		if !t.ascendRange(n.left, lo, hi, fn) {
			return false
		}
		if n.key < hi && !fn(n.key, n.value) {
			return false
		}
	}
	if n.key < hi {
		return t.ascendRange(n.right, lo, hi, fn)
	}
	return true
}

// Clear empties the tree, returning every node to the pool.
func (t *Tree[K, V]) Clear() {
	t.releaseAll(t.root)
	t.root = t.nil_
	t.size = 0
}

func (t *Tree[K, V]) releaseAll(n *node[K, V]) {
	if n == t.nil_ {
		return
	}
	t.releaseAll(n.left)
	t.releaseAll(n.right)
	t.release(n)
}

// Depth returns the height of the tree (0 for empty) in O(1). A valid
// red-black tree has depth <= 2*log2(n+1); kloc prices knode and kmap
// traversals with it in the paper's "ten memory references per
// traversal" cost model (§4.2.3).
func (t *Tree[K, V]) Depth() int { return int(t.root.height) }

// --- rebalancing ---

// fixHeights recomputes stored heights from n up to the root.
func (t *Tree[K, V]) fixHeights(n *node[K, V]) {
	for ; n != t.nil_; n = n.parent {
		n.height = 1 + max(n.left.height, n.right.height)
	}
}

func (t *Tree[K, V]) rotateLeft(x *node[K, V]) {
	y := x.right
	x.right = y.left
	if y.left != t.nil_ {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	t.fixHeights(x)
}

func (t *Tree[K, V]) rotateRight(x *node[K, V]) {
	y := x.left
	x.left = y.right
	if y.right != t.nil_ {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	t.fixHeights(x)
}

func (t *Tree[K, V]) insertFixup(z *node[K, V]) {
	for z.parent.color == red {
		if z.parent == z.parent.parent.left {
			y := z.parent.parent.right
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				t.rotateRight(z.parent.parent)
			}
		} else {
			y := z.parent.parent.left
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				t.rotateLeft(z.parent.parent)
			}
		}
	}
	t.root.color = black
}

func (t *Tree[K, V]) minimum(n *node[K, V]) *node[K, V] {
	for n.left != t.nil_ {
		n = n.left
	}
	return n
}

func (t *Tree[K, V]) transplant(u, v *node[K, V]) {
	switch {
	case u.parent == t.nil_:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	v.parent = u.parent
}

func (t *Tree[K, V]) deleteNode(z *node[K, V]) {
	y := z
	yOriginal := y.color
	var x *node[K, V]
	switch {
	case z.left == t.nil_:
		x = z.right
		t.transplant(z, z.right)
	case z.right == t.nil_:
		x = z.left
		t.transplant(z, z.left)
	default:
		y = t.minimum(z.right)
		yOriginal = y.color
		x = y.right
		if y.parent == z {
			x.parent = y
		} else {
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	// CLRS leaves x.parent set even when x is the sentinel.
	t.fixHeights(x.parent)
	if yOriginal == black {
		t.deleteFixup(x)
	}
}

func (t *Tree[K, V]) deleteFixup(x *node[K, V]) {
	for x != t.root && x.color == black {
		if x == x.parent.left {
			w := x.parent.right
			if w.color == red {
				w.color = black
				x.parent.color = red
				t.rotateLeft(x.parent)
				w = x.parent.right
			}
			if w.left.color == black && w.right.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.right.color == black {
					w.left.color = black
					w.color = red
					t.rotateRight(w)
					w = x.parent.right
				}
				w.color = x.parent.color
				x.parent.color = black
				w.right.color = black
				t.rotateLeft(x.parent)
				x = t.root
			}
		} else {
			w := x.parent.left
			if w.color == red {
				w.color = black
				x.parent.color = red
				t.rotateRight(x.parent)
				w = x.parent.left
			}
			if w.right.color == black && w.left.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.left.color == black {
					w.right.color = black
					w.color = red
					t.rotateLeft(w)
					w = x.parent.left
				}
				w.color = x.parent.color
				x.parent.color = black
				w.left.color = black
				t.rotateRight(x.parent)
				x = t.root
			}
		}
	}
	x.color = black
}

// Check validates the red-black invariants and the stored heights,
// returning a descriptive violation or "" when valid. It exists for
// tests.
func (t *Tree[K, V]) Check() string {
	if t.root.color != black {
		return "root is red"
	}
	if t.nil_.height != 0 {
		return "sentinel height is not 0"
	}
	_, msg := t.check(t.root)
	return msg
}

func (t *Tree[K, V]) check(n *node[K, V]) (blackHeight int, msg string) {
	if n == t.nil_ {
		return 1, ""
	}
	if n.height != 1+max(n.left.height, n.right.height) {
		return 0, "stored height out of date"
	}
	if n.color == red {
		if n.left.color == red || n.right.color == red {
			return 0, "red node with red child"
		}
	}
	if n.left != t.nil_ && n.left.key >= n.key {
		return 0, "left child key out of order"
	}
	if n.right != t.nil_ && n.right.key <= n.key {
		return 0, "right child key out of order"
	}
	lh, m := t.check(n.left)
	if m != "" {
		return 0, m
	}
	rh, m := t.check(n.right)
	if m != "" {
		return 0, m
	}
	if lh != rh {
		return 0, "black height mismatch"
	}
	if n.color == black {
		lh++
	}
	return lh, ""
}
