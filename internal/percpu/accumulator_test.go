package percpu

import "testing"

func TestAccumulatorExactValues(t *testing.T) {
	a := NewAccumulator(4, 3, 100)
	for cpu := 0; cpu < 4; cpu++ {
		for i := 0; i < 7; i++ {
			a.Inc(cpu, 0)
		}
		a.Add(cpu, 1, 50)
		a.Add(cpu, 2, -2)
		a.Add(cpu, 2, 5)
	}
	if got := a.Value(0); got != 28 {
		t.Fatalf("cell 0 = %d, want 28", got)
	}
	if got := a.Value(1); got != 200 {
		t.Fatalf("cell 1 = %d, want 200", got)
	}
	if got := a.Value(2); got != 12 {
		t.Fatalf("cell 2 = %d, want 12 (net of negative deltas)", got)
	}
}

func TestAccumulatorThresholdCommit(t *testing.T) {
	a := NewAccumulator(1, 1, 10)
	for i := 0; i < 9; i++ {
		a.Inc(0, 0)
	}
	if a.Commits != 0 {
		t.Fatalf("committed %d times below threshold", a.Commits)
	}
	a.Inc(0, 0) // hits threshold
	if a.Commits != 1 {
		t.Fatalf("commits = %d after threshold, want 1", a.Commits)
	}
	if a.store[0] != 10 {
		t.Fatalf("store = %d, want 10", a.store[0])
	}
	// A large single delta commits immediately.
	a.Add(0, 0, 1000)
	if a.Commits != 2 || a.store[0] != 1010 {
		t.Fatalf("commits=%d store=%d after large delta", a.Commits, a.store[0])
	}
	// Negative magnitude also triggers.
	a.Add(0, 0, -11)
	if a.Commits != 3 {
		t.Fatalf("commits = %d after negative threshold, want 3", a.Commits)
	}
	if got := a.Value(0); got != 999 {
		t.Fatalf("value = %d, want 999", got)
	}
}

func TestAccumulatorFlush(t *testing.T) {
	a := NewAccumulator(2, 2, 1000)
	a.Add(0, 0, 3)
	a.Add(1, 0, 4)
	a.Add(1, 1, 5)
	a.Flush()
	if a.Commits != 3 {
		t.Fatalf("flush commits = %d, want 3 (one per dirty lane-cell)", a.Commits)
	}
	// Flushing clean lanes commits nothing — Commits stays a
	// deterministic function of the update sequence.
	a.Flush()
	if a.Commits != 3 {
		t.Fatalf("idle flush added commits: %d", a.Commits)
	}
	if a.Value(0) != 7 || a.Value(1) != 5 {
		t.Fatalf("values = %d,%d want 7,5", a.Value(0), a.Value(1))
	}
	if a.Adds != 3 {
		t.Fatalf("adds = %d, want 3", a.Adds)
	}
}

func TestAccumulatorDefaults(t *testing.T) {
	a := NewAccumulator(0, 1, 0)
	if a.CPUs() != 1 || len(a.store) != 1 {
		t.Fatalf("cpus=%d cells=%d", a.CPUs(), len(a.store))
	}
	if a.threshold != DefaultCommitThreshold {
		t.Fatalf("threshold = %d", a.threshold)
	}
}

// TestAccumulatorConservesAcrossCPUs interleaves eight CPUs' updates,
// negative deltas included, at a tiny threshold so threshold commits
// fire constantly, then checks net-delta conservation: after a flush
// the store holds exactly what every CPU contributed.
func TestAccumulatorConservesAcrossCPUs(t *testing.T) {
	const (
		cpus   = 8
		cells  = 4
		rounds = 5000
	)
	a := NewAccumulator(cpus, cells, 3) // tiny threshold: constant commits
	var want [cells]uint64
	for i := 0; i < rounds; i++ {
		cell := i % cells
		for cpu := 0; cpu < cpus; cpu++ {
			a.Add(cpu, cell, int64(cpu+1))
			want[cell] += uint64(cpu + 1)
			if i%7 == 0 {
				a.Add(cpu, cell, -1)
				want[cell]--
			}
		}
	}
	a.Flush()
	for cell := 0; cell < cells; cell++ {
		if got := a.Value(cell); got != want[cell] {
			t.Errorf("cell %d = %d, want %d", cell, got, want[cell])
		}
	}
	if wantAdds := uint64(cpus * (rounds + (rounds+6)/7)); a.Adds != wantAdds {
		t.Errorf("adds = %d, want %d", a.Adds, wantAdds)
	}
	if a.Commits == 0 {
		t.Error("no commits despite the tiny threshold")
	}
}
