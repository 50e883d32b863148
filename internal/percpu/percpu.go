// Package percpu implements the per-CPU fast-path lists of §4.3: each
// CPU keeps a bounded, recency-ordered list of knodes it touched, with
// an age counter per entry. The lists act as a software cache of the
// global kmap — hits avoid red-black tree traversals (the paper reports
// a 54% reduction in rbtree-cache/rbtree-slab accesses).
//
// The same knode can appear on several CPUs' lists; Invalidate provides
// the coherence hook Linux's per-CPU list APIs give the real kernel.
//
// The package also provides Accumulator, the per-CPU batched counter
// engine behind memsim's per-access counters: counter updates land in
// per-CPU lanes and commit net deltas to the shared store at a
// threshold (DESIGN.md §13). See the Accumulator type for the flush/ordering
// contract — in short, Add is lane-owner-only, Flush/Value are
// coordinator-only and always yield exact values, and only
// commutative counters may be batched.
package percpu

import "sync/atomic"

// Entry is one cached item with its age. Age is reset on every touch
// and incremented by LRU scans that decline to evict (§4.3). Entries
// live in one CPU's list, touched only by that CPU's lane.
type Entry[T comparable] struct {
	Item T
	Age  int
}

// Lists is a set of per-CPU bounded recency lists.
type Lists[T comparable] struct {
	cap   int
	lists [][]Entry[T] // index 0 = most recently touched
	// where[item] = set of CPUs caching it, for O(#CPUs) invalidation.
	where map[T]map[int]struct{}

	// Hits/Misses count Touch operations that found/missed the item —
	// the ablation metric for the fast path. Touch runs on every lane,
	// so they aggregate cross-lane and go through sync/atomic, the same
	// treatment as Accumulator's store: write via atomic adds in Touch,
	// read via HitCount/MissCount/HitRate. Exported for the ablation
	// tables; read them through those accessors, never directly.
	Hits, Misses uint64
}

// New creates per-CPU lists for cpus CPUs with the given per-CPU
// capacity.
func New[T comparable](cpus, capacity int) *Lists[T] {
	if cpus < 1 {
		cpus = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Lists[T]{
		cap:   capacity,
		lists: make([][]Entry[T], cpus),
		where: make(map[T]map[int]struct{}),
	}
}

// CPUs reports the number of CPUs.
func (l *Lists[T]) CPUs() int { return len(l.lists) }

// Touch records that cpu accessed item: the entry moves to the front of
// cpu's list with age zero, evicting the list's tail if full. It
// reports whether the item was already cached on that CPU.
func (l *Lists[T]) Touch(cpu int, item T) bool {
	list := l.lists[cpu]
	for i := range list {
		if list[i].Item == item {
			e := list[i]
			e.Age = 0
			copy(list[1:i+1], list[:i])
			list[0] = e
			atomic.AddUint64(&l.Hits, 1)
			return true
		}
	}
	atomic.AddUint64(&l.Misses, 1)
	if len(list) >= l.cap {
		// Evict the tail: its slot is the one the shift below fills.
		l.forget(cpu, list[len(list)-1].Item)
	} else {
		list = append(list, Entry[T]{})
		l.lists[cpu] = list
	}
	copy(list[1:], list)
	list[0] = Entry[T]{Item: item}
	set := l.where[item]
	if set == nil {
		set = make(map[int]struct{})
		l.where[item] = set
	}
	set[cpu] = struct{}{}
	return false
}

func (l *Lists[T]) forget(cpu int, item T) {
	if set := l.where[item]; set != nil {
		delete(set, cpu)
		if len(set) == 0 {
			delete(l.where, item)
		}
	}
}

// Contains reports whether cpu's list caches item.
func (l *Lists[T]) Contains(cpu int, item T) bool {
	set := l.where[item]
	if set == nil {
		return false
	}
	_, ok := set[cpu]
	return ok
}

// CachedAnywhere reports whether any CPU caches item.
func (l *Lists[T]) CachedAnywhere(item T) bool { return len(l.where[item]) > 0 }

// LastCPU returns some CPU currently caching item (find_cpu in
// Table 2), or -1.
func (l *Lists[T]) LastCPU(item T) int {
	set := l.where[item]
	best := -1
	//klocs:unordered max reduction is order-insensitive
	for cpu := range set {
		if cpu > best {
			best = cpu
		}
	}
	return best
}

// Invalidate removes item from every CPU list (coherence on knode
// deletion).
func (l *Lists[T]) Invalidate(item T) {
	set := l.where[item]
	if set == nil {
		return
	}
	//klocs:unordered each iteration edits a distinct CPU's private list
	for cpu := range set {
		list := l.lists[cpu]
		for i := range list {
			if list[i].Item == item {
				l.lists[cpu] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	delete(l.where, item)
}

// AgeScan increments the age of every entry on cpu's list and calls fn
// for each (item, newAge). This is the LRU engine's pass over the
// per-CPU lists (§4.3): entries it does not evict get older.
func (l *Lists[T]) AgeScan(cpu int, fn func(item T, age int)) {
	list := l.lists[cpu]
	for i := range list {
		list[i].Age++
		if fn != nil {
			fn(list[i].Item, list[i].Age)
		}
	}
}

// ColdestOn returns the entries on cpu's list with age >= threshold.
func (l *Lists[T]) ColdestOn(cpu, threshold int) []T {
	var out []T
	for _, e := range l.lists[cpu] {
		if e.Age >= threshold {
			out = append(out, e.Item)
		}
	}
	return out
}

// Len reports the length of cpu's list.
func (l *Lists[T]) Len(cpu int) int { return len(l.lists[cpu]) }

// HitCount reports Touch operations that found their item cached.
func (l *Lists[T]) HitCount() uint64 { return atomic.LoadUint64(&l.Hits) }

// MissCount reports Touch operations that missed.
func (l *Lists[T]) MissCount() uint64 { return atomic.LoadUint64(&l.Misses) }

// HitRate returns Hits/(Hits+Misses), or 0 with no traffic.
func (l *Lists[T]) HitRate() float64 {
	hits := atomic.LoadUint64(&l.Hits)
	total := hits + atomic.LoadUint64(&l.Misses)
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
