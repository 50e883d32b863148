package percpu

// Accumulator batches per-CPU counter updates over a dense store —
// the VSA-style batched accounting behind memsim's per-access counters
// (DESIGN.md §13). Each CPU accumulates signed net deltas per cell and
// commits a cell to the store only when the cell's pending magnitude
// reaches the commit threshold, so a stream of N per-event increments
// costs N pending writes but roughly N/threshold store writes.
//
// Value flushes its cell first and is therefore always exact. A commit
// transfers only the net sum of a CPU's pending deltas, so batching is
// valid exactly for commutative counters (counts, byte totals);
// anything order-sensitive must not go through an Accumulator.
//
// Adds and Commits are deterministic functions of the update sequence
// (same seed → same counts); their ratio is the store write reduction.
type Accumulator struct {
	threshold int64
	pending   [][]int64 // [cpu][cell] net delta not yet committed
	store     []uint64  // committed values

	// Adds counts every Add call; Commits counts store writes
	// (threshold-triggered plus non-empty flushes). harness.Result.Perf
	// reports both.
	Adds, Commits uint64
}

// DefaultCommitThreshold batches small-delta counters well (refs
// commit every 1<<15 events) while keeping large-delta counters
// (byte totals) committing every few events — commits are a single
// add, so frequency only matters for the store write rate.
const DefaultCommitThreshold = 1 << 15

// NewAccumulator builds an accumulator for cpus CPUs of cells
// counters each. threshold <= 0 selects DefaultCommitThreshold.
func NewAccumulator(cpus, cells int, threshold int64) *Accumulator {
	if cpus < 1 {
		cpus = 1
	}
	if threshold <= 0 {
		threshold = DefaultCommitThreshold
	}
	pending := make([][]int64, cpus)
	for i := range pending {
		pending[i] = make([]int64, cells)
	}
	return &Accumulator{threshold: threshold, pending: pending, store: make([]uint64, cells)}
}

// CPUs reports the CPU count.
func (a *Accumulator) CPUs() int { return len(a.pending) }

// Add accumulates delta into cpu's pending count for cell, committing
// the cell's net pending to the store once its magnitude reaches the
// threshold.
func (a *Accumulator) Add(cpu, cell int, delta int64) {
	a.Adds++
	row := a.pending[cpu]
	row[cell] += delta
	if p := row[cell]; p >= a.threshold || -p >= a.threshold {
		a.store[cell] += uint64(p)
		row[cell] = 0
		a.Commits++
	}
}

// Inc is Add(cpu, cell, 1).
func (a *Accumulator) Inc(cpu, cell int) { a.Add(cpu, cell, 1) }

// FlushCell commits every CPU's pending deltas for one cell.
func (a *Accumulator) FlushCell(cell int) {
	for _, row := range a.pending {
		if p := row[cell]; p != 0 {
			a.store[cell] += uint64(p)
			row[cell] = 0
			a.Commits++
		}
	}
}

// Flush commits every CPU's pending deltas. The harness calls it (via
// memsim.SyncStats) at snapshot and collect boundaries so direct Stats
// reads are exact.
func (a *Accumulator) Flush() {
	for _, row := range a.pending {
		for cell, p := range row {
			if p != 0 {
				a.store[cell] += uint64(p)
				row[cell] = 0
				a.Commits++
			}
		}
	}
}

// Value returns cell's exact current value, flushing the cell's
// pending deltas first. The store is a modular uint64 sum, so negative
// net deltas are fine as long as the true running value never goes
// below zero (true for every counter the module batches).
func (a *Accumulator) Value(cell int) uint64 {
	a.FlushCell(cell)
	return a.store[cell]
}
