// Package percpu implements the per-CPU fast-path lists of §4.3: each
// CPU keeps a bounded, recency-ordered list of knodes it touched, with
// an age counter per entry. The lists act as a software cache of the
// global kmap — hits avoid red-black tree traversals (the paper reports
// a 54% reduction in rbtree-cache/rbtree-slab accesses).
//
// The same knode can appear on several CPUs' lists; Invalidate provides
// the coherence hook Linux's per-CPU list APIs give the real kernel.
package percpu

// Entry is one cached item with its age. Age is reset on every touch
// and incremented by LRU scans that decline to evict (§4.3). Entries
// live in one CPU's list.
type Entry[T comparable] struct {
	Item T
	Age  int
}

// Lists is a set of per-CPU bounded recency lists. No index records
// which CPUs cache an item: every query scans the lists themselves, at
// most capacity entries per CPU.
type Lists[T comparable] struct {
	cap   int
	lists [][]Entry[T] // index 0 = most recently touched

	// Hits/Misses count Touch operations that found/missed the item —
	// the ablation metric for the fast path.
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
	}
}

// CPUs reports the number of CPUs.
func (l *Lists[T]) CPUs() int { return len(l.lists) }

// Touch records that cpu accessed item: the entry moves to the front of
// cpu's list with age zero, evicting the list's tail if full. It
// reports whether the item was already cached on that CPU.
func (l *Lists[T]) Touch(cpu int, item T) bool {
	list := l.lists[cpu]
	if i := l.index(cpu, item); i >= 0 {
		e := list[i]
		e.Age = 0
		copy(list[1:i+1], list[:i])
		list[0] = e
		l.Hits++
		return true
	}
	l.Misses++
	// A full list drops its tail: its slot is the one the shift below
	// fills.
	if len(list) < l.cap {
		list = append(list, Entry[T]{})
		l.lists[cpu] = list
	}
	copy(list[1:], list)
	list[0] = Entry[T]{Item: item}
	return false
}

// index returns item's position on cpu's list, or -1.
func (l *Lists[T]) index(cpu int, item T) int {
	for i, e := range l.lists[cpu] {
		if e.Item == item {
			return i
		}
	}
	return -1
}

// Contains reports whether cpu's list caches item.
func (l *Lists[T]) Contains(cpu int, item T) bool { return l.index(cpu, item) >= 0 }

// LastCPU returns the highest-numbered CPU currently caching item
// (find_cpu in Table 2), or -1.
func (l *Lists[T]) LastCPU(item T) int {
	for cpu := len(l.lists) - 1; cpu >= 0; cpu-- {
		if l.Contains(cpu, item) {
			return cpu
		}
	}
	return -1
}

// Invalidate removes item from every CPU list (coherence on knode
// deletion).
func (l *Lists[T]) Invalidate(item T) {
	for cpu, list := range l.lists {
		if i := l.index(cpu, item); i >= 0 {
			l.lists[cpu] = append(list[:i], list[i+1:]...)
		}
	}
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

// Len reports the length of cpu's list.
func (l *Lists[T]) Len(cpu int) int { return len(l.lists[cpu]) }

// HitRate returns Hits/(Hits+Misses), or 0 with no traffic.
func (l *Lists[T]) HitRate() float64 {
	total := l.Hits + l.Misses
	if total == 0 {
		return 0
	}
	return float64(l.Hits) / float64(total)
}
