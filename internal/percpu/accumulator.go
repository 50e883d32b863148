package percpu

import "sync/atomic"

// Accumulator is a set of per-CPU counter lanes over a shared dense
// store — the VSA-style batched accounting engine behind memsim's
// per-access counters (DESIGN.md §13). Each lane accumulates signed
// net deltas locally and commits a cell to the shared store only when
// the cell's pending magnitude reaches the commit threshold, so a
// stream of N per-event increments costs N lane writes but roughly
// N/threshold shared-store writes. On the single-goroutine engine the
// lanes buy locality; concurrent callers would also keep hot counters
// off shared cachelines.
//
// Contract (who may touch what):
//
//   - Add is owner-only: on a parallel engine, only the goroutine
//     driving cpu's lane may Add to it. The single-goroutine simulator
//     trivially satisfies this. Lane storage is therefore plain; the
//     shared store and the Adds/Commits counters go through sync/atomic
//     so concurrent commits from distinct lanes are race-free (the
//     TestAccumulatorConcurrentLanes -race stress test pins this).
//   - Flush, FlushCell, and Value are coordinator-only: they walk every
//     lane, so they must run at a quiescent point (snapshot and stats
//     boundaries in the harness). Value flushes its cell first and is
//     therefore always exact — no reader can observe a mid-batch count.
//   - Ordering: a commit transfers only the net sum of a lane's pending
//     deltas, so batching is valid exactly for commutative counters
//     (counts, byte totals). Anything order- or interleaving-sensitive
//     must not go through an Accumulator.
//
// Adds and Commits are themselves deterministic functions of the event
// sequence (same seed → same counts); their ratio is the shared-store
// write reduction.
type Accumulator struct {
	threshold int64
	lanes     [][]int64 // [cpu][cell] pending net delta; owner-only plain access
	store     []uint64  // committed values; sync/atomic access after init

	// Adds counts every Add call; Commits counts shared-store writes
	// (threshold-triggered plus non-empty flushes). Both are exact and
	// deterministic — harness.Result.Perf reports both. Mutated
	// through sync/atomic (Add runs on every lane); read via Counters.
	Adds, Commits uint64
}

// DefaultCommitThreshold batches small-delta counters well (refs
// commit every 1<<15 events) while keeping large-delta counters
// (byte totals) committing every few events — commits are a single
// add, so frequency only matters for the shared-store write rate.
const DefaultCommitThreshold = 1 << 15

// NewAccumulator builds an accumulator with cpus lanes of cells
// counters each. threshold <= 0 selects DefaultCommitThreshold.
func NewAccumulator(cpus, cells int, threshold int64) *Accumulator {
	if cpus < 1 {
		cpus = 1
	}
	if threshold <= 0 {
		threshold = DefaultCommitThreshold
	}
	lanes := make([][]int64, cpus)
	for i := range lanes {
		lanes[i] = make([]int64, cells)
	}
	return &Accumulator{threshold: threshold, lanes: lanes, store: make([]uint64, cells)}
}

// CPUs reports the lane count.
func (a *Accumulator) CPUs() int { return len(a.lanes) }

// Cells reports the per-lane cell count.
func (a *Accumulator) Cells() int { return len(a.store) }

// Add accumulates delta into cpu's lane for cell, committing the
// cell's net pending to the shared store once its magnitude reaches
// the threshold. Owner-only (see the type contract).
func (a *Accumulator) Add(cpu, cell int, delta int64) {
	atomic.AddUint64(&a.Adds, 1)
	lane := a.lanes[cpu]
	lane[cell] += delta
	if p := lane[cell]; p >= a.threshold || -p >= a.threshold {
		atomic.AddUint64(&a.store[cell], uint64(p))
		lane[cell] = 0
		atomic.AddUint64(&a.Commits, 1)
	}
}

// Inc is Add(cpu, cell, 1).
func (a *Accumulator) Inc(cpu, cell int) { a.Add(cpu, cell, 1) }

// FlushCell commits every lane's pending deltas for one cell.
// Coordinator-only.
func (a *Accumulator) FlushCell(cell int) {
	for _, lane := range a.lanes {
		if p := lane[cell]; p != 0 {
			atomic.AddUint64(&a.store[cell], uint64(p))
			lane[cell] = 0
			atomic.AddUint64(&a.Commits, 1)
		}
	}
}

// Flush commits all pending deltas in every lane. Coordinator-only;
// the harness calls it (via memsim.SyncStats) at snapshot and collect
// boundaries so direct Stats reads are exact.
func (a *Accumulator) Flush() {
	for _, lane := range a.lanes {
		for cell, p := range lane {
			if p != 0 {
				atomic.AddUint64(&a.store[cell], uint64(p))
				lane[cell] = 0
				atomic.AddUint64(&a.Commits, 1)
			}
		}
	}
}

// Value returns cell's exact current value, flushing the cell's
// pending deltas first. Coordinator-only. The store is a modular
// uint64 sum, so negative net deltas are fine as long as the true
// running value never goes below zero (true for every counter the
// module batches).
func (a *Accumulator) Value(cell int) uint64 {
	a.FlushCell(cell)
	return atomic.LoadUint64(&a.store[cell])
}

// Counters returns the Adds and Commits counts through sync/atomic, so
// callers never mix plain reads with the atomic increments in Add.
func (a *Accumulator) Counters() (adds, commits uint64) {
	return atomic.LoadUint64(&a.Adds), atomic.LoadUint64(&a.Commits)
}
