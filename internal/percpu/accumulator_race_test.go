package percpu

import (
	"sync"
	"testing"
)

// TestAccumulatorConcurrentLanes drives every lane from its own
// goroutine with a tiny commit threshold so threshold commits hammer
// the shared store concurrently, then flushes and checks net-delta
// conservation: the store must hold exactly what the lanes contributed.
// Under -race (make race, CI) this pins the ownership split the
// Accumulator contract documents — lanes plain and owner-only, store
// and meters through sync/atomic.
func TestAccumulatorConcurrentLanes(t *testing.T) {
	const (
		cpus   = 8
		cells  = 4
		rounds = 5000
	)
	a := NewAccumulator(cpus, cells, 3) // tiny threshold: constant commits
	var wg sync.WaitGroup
	for cpu := 0; cpu < cpus; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cell := i % cells
				a.Add(cpu, cell, int64(cpu+1))
				if i%7 == 0 {
					a.Add(cpu, cell, -1)
				}
			}
		}(cpu)
	}
	wg.Wait()
	a.Flush()

	var want [cells]uint64
	for cpu := 0; cpu < cpus; cpu++ {
		for i := 0; i < rounds; i++ {
			cell := i % cells
			want[cell] += uint64(cpu + 1)
			if i%7 == 0 {
				want[cell]--
			}
		}
	}
	for cell := 0; cell < cells; cell++ {
		if got := a.Value(cell); got != want[cell] {
			t.Errorf("cell %d = %d after concurrent commits, want %d", cell, got, want[cell])
		}
	}
	adds, commits := a.Counters()
	wantAdds := uint64(cpus * (rounds + (rounds+6)/7))
	if adds != wantAdds {
		t.Errorf("adds = %d, want %d", adds, wantAdds)
	}
	if commits == 0 {
		t.Error("no commits despite the tiny threshold")
	}
}
