package percpu

import (
	"fmt"
	"slices"
	"testing"

	"kloc/internal/sim"
)

// refLists is Lists as it was while a map recorded which CPUs cache
// each item. It is kept only as the reference TestPerCPUListsMatchReference
// holds the scan-only Lists to.
type refLists[T comparable] struct {
	cap          int
	lists        [][]Entry[T]
	where        map[T]map[int]struct{}
	Hits, Misses uint64
}

func newRefLists[T comparable](cpus, capacity int) *refLists[T] {
	return &refLists[T]{cap: capacity, lists: make([][]Entry[T], cpus), where: make(map[T]map[int]struct{})}
}

func (l *refLists[T]) Touch(cpu int, item T) bool {
	list := l.lists[cpu]
	for i := range list {
		if list[i].Item == item {
			e := list[i]
			e.Age = 0
			copy(list[1:i+1], list[:i])
			list[0] = e
			l.Hits++
			return true
		}
	}
	l.Misses++
	if len(list) >= l.cap {
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

func (l *refLists[T]) forget(cpu int, item T) {
	if set := l.where[item]; set != nil {
		delete(set, cpu)
		if len(set) == 0 {
			delete(l.where, item)
		}
	}
}

func (l *refLists[T]) Contains(cpu int, item T) bool {
	_, ok := l.where[item][cpu]
	return ok
}

func (l *refLists[T]) LastCPU(item T) int {
	best := -1
	for cpu := range l.where[item] {
		if cpu > best {
			best = cpu
		}
	}
	return best
}

func (l *refLists[T]) Invalidate(item T) {
	for cpu := range l.where[item] {
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

func (l *refLists[T]) AgeScan(cpu int) {
	for i := range l.lists[cpu] {
		l.lists[cpu][i].Age++
	}
}

func (l *refLists[T]) ColdestOn(cpu, threshold int) []T {
	var out []T
	for _, e := range l.lists[cpu] {
		if e.Age >= threshold {
			out = append(out, e.Item)
		}
	}
	return out
}

// diff describes the first way l differs from the reference in its
// counters or in cpu's list (order and ages), or returns "".
func (ref *refLists[T]) diff(l *Lists[T], cpu int) string {
	if l.Hits != ref.Hits || l.Misses != ref.Misses {
		return fmt.Sprintf("hits/misses %d/%d, reference %d/%d", l.Hits, l.Misses, ref.Hits, ref.Misses)
	}
	if l.Len(cpu) != len(ref.lists[cpu]) || !slices.Equal(l.lists[cpu], ref.lists[cpu]) {
		return fmt.Sprintf("cpu %d list %v, reference %v", cpu, l.lists[cpu], ref.lists[cpu])
	}
	return ""
}

// TestPerCPUListsMatchReference drives the scan-only Lists and the map-indexed
// reference through random Touch, Invalidate and AgeScan calls on 1-16
// CPUs with per-CPU capacities of 1-64, over item sets small enough
// that most items sit on several CPUs at once. After every step it
// compares Touch's result, Hits/Misses, each list's order and ages,
// Len, ColdestOn, and Contains and LastCPU for the item just used and
// for one drawn at random.
func TestPerCPUListsMatchReference(t *testing.T) {
	r := sim.NewRNG(1)
	spread := 0 // queries and invalidations of an item cached on 2+ CPUs
	for trial := 0; trial < 48; trial++ {
		cpus, capacity := 1+r.Intn(16), 1+r.Intn(64)
		if trial < 2 {
			cpus, capacity = 16-15*trial, 64-63*trial // the corners: 16×64 and 1×1
		}
		items := capacity + 1 + r.Intn(capacity+4)
		l, ref := New[int](cpus, capacity), newRefLists[int](cpus, capacity)
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("%d CPUs × %d, step %d: %s", cpus, capacity, step, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 3000; step++ {
			cpu, item := r.Intn(cpus), r.Intn(items)
			switch op := r.Intn(20); {
			case op < 15:
				if got, want := l.Touch(cpu, item), ref.Touch(cpu, item); got != want {
					fail(step, "Touch(%d, %d) = %v, reference %v", cpu, item, got, want)
				}
			case op < 17:
				if len(ref.where[item]) > 1 {
					spread++
				}
				l.Invalidate(item)
				ref.Invalidate(item)
				for c := range ref.lists {
					if d := ref.diff(l, c); d != "" {
						fail(step, "after Invalidate(%d): %s", item, d)
					}
				}
			default:
				l.AgeScan(cpu, nil)
				ref.AgeScan(cpu)
			}
			if d := ref.diff(l, cpu); d != "" {
				fail(step, "%s", d)
			}
			threshold := r.Intn(6)
			if got, want := l.ColdestOn(cpu, threshold), ref.ColdestOn(cpu, threshold); !slices.Equal(got, want) {
				fail(step, "ColdestOn(%d, %d) = %v, reference %v", cpu, threshold, got, want)
			}
			for _, it := range []int{item, r.Intn(items)} {
				if len(ref.where[it]) > 1 {
					spread++
				}
				if got, want := l.LastCPU(it), ref.LastCPU(it); got != want {
					fail(step, "LastCPU(%d) = %d, reference %d", it, got, want)
				}
				c := r.Intn(cpus)
				if got, want := l.Contains(c, it), ref.Contains(c, it); got != want {
					fail(step, "Contains(%d, %d) = %v, reference %v", c, it, got, want)
				}
			}
		}
	}
	if spread == 0 {
		t.Fatal("no query or invalidation met an item cached on two CPUs")
	}
	t.Logf("%d queries and invalidations of an item cached on two or more CPUs", spread)
}
