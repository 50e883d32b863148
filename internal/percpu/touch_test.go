package percpu

import (
	"testing"

	"kloc/internal/sim"
)

// TestTouchMatchesPrepend holds Touch's in-place shift to the list it
// replaced, which prepended by copying the whole list: random touches
// and age scans on three CPUs, comparing every list's items and ages
// after every step.
func TestTouchMatchesPrepend(t *testing.T) {
	const cpus, capacity = 3, 5
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		r := sim.NewRNG(seed)
		l := New[int](cpus, capacity)
		ref := make([][]Entry[int], cpus)
		for step := 0; step < 3000; step++ {
			cpu := r.Intn(cpus)
			if r.Bool(0.1) {
				l.AgeScan(cpu, nil)
				for i := range ref[cpu] {
					ref[cpu][i].Age++
				}
			} else {
				item := r.Intn(12)
				list, hit := ref[cpu], false
				for i := range list {
					if list[i].Item == item {
						list = append(list[:i], list[i+1:]...)
						hit = true
						break
					}
				}
				if !hit && len(list) >= capacity {
					list = list[:len(list)-1]
				}
				ref[cpu] = append([]Entry[int]{{Item: item}}, list...)
				if got := l.Touch(cpu, item); got != hit {
					t.Fatalf("seed %d step %d: Touch(%d, %d) = %v, reference %v", seed, step, cpu, item, got, hit)
				}
			}
			for c := range ref {
				got, want := l.lists[c], ref[c]
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: cpu %d list %v, reference %v", seed, step, c, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: cpu %d list %v, reference %v", seed, step, c, got, want)
					}
				}
			}
		}
	}
}

// missLoop touches nine items in turn on CPU 0 of a list that holds
// eight, so every Touch misses and evicts the tail. CPUs 1 and 2 cache
// the same items, which a Touch on CPU 0 never scans.
func missLoop(l *Lists[int], next *int) {
	l.Touch(0, *next)
	*next = (*next + 1) % 9
}

func warmMissLoop() (*Lists[int], *int) {
	l := New[int](3, 8)
	for i := 0; i < 8; i++ {
		l.Touch(1, i)
		l.Touch(2, i+1)
	}
	next := 0
	for i := 0; i < 18; i++ {
		missLoop(l, &next)
	}
	return l, &next
}

// TestTouchMissIsAllocFree is the fast-path gate: a Touch miss on a
// full list shifts it in place and allocates nothing.
func TestTouchMissIsAllocFree(t *testing.T) {
	l, next := warmMissLoop()
	misses := l.Misses
	if n := testing.AllocsPerRun(200, func() { missLoop(l, next) }); n != 0 {
		t.Fatalf("a Touch miss allocates %v per op", n)
	}
	if l.Hits != 0 || l.Misses == misses {
		t.Fatalf("the loop did not miss on every Touch: hits=%d misses=%d", l.Hits, l.Misses)
	}
}

// BenchmarkTouchMiss times the gate's loop, one Touch miss per op.
func BenchmarkTouchMiss(b *testing.B) {
	l, next := warmMissLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missLoop(l, next)
	}
}
