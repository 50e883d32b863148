// Package metrics holds the distributions the paper's evaluation
// summarizes: per-operation virtual costs and request latencies
// (Distribution) and object lifetimes by allocation class (Fig 2d,
// LifetimeTracker). The counts the other figures report — allocations
// by object type (Fig 2a/2b), memory-reference splits (Fig 2c),
// slow-memory allocations and migrations (Fig 5b) and KLOC metadata
// overhead (Table 6) — live on the subsystems that count them
// (memsim.Stats, fs.Stats, netsim.Stats and the KLOCs policy).
//
// The simulator is single-goroutine, so no locking is needed, and
// snapshots are cheap value copies.
//
// Subsystems with hot-path counters (memsim, trace, kernel, kloc) keep
// them batched, pooled and densely indexed (DESIGN.md §13). The
// contract they keep: accounting is invisible to the simulation (it
// charges no virtual cost and influences no control flow), and any
// value a reader can observe is exact at the moment of reading —
// batched stores flush before a read (memsim.SyncStats,
// trace.Tracer.Stats), so no caller ever sees a counter mid-batch.
package metrics

import (
	"sort"

	"kloc/internal/sim"
)

// Distribution accumulates scalar samples and reports summary
// statistics. It keeps all samples when small and switches to a
// log-scale histogram beyond a threshold so lifetime tracking of
// millions of kernel objects stays O(1) per sample.
type Distribution struct {
	count   uint64
	sum     float64
	min     float64
	max     float64
	samples []float64 // exact, until histogram mode
	buckets []uint64  // log2 buckets once exact storage is abandoned
}

const exactLimit = 1 << 14

// Observe records a sample.
func (d *Distribution) Observe(v float64) {
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	if d.buckets == nil && len(d.samples) < exactLimit {
		d.samples = append(d.samples, v)
		return
	}
	if d.buckets == nil {
		// Convert to histogram mode.
		d.buckets = make([]uint64, 64)
		for _, s := range d.samples {
			d.buckets[bucketOf(s)]++
		}
		d.samples = nil
	}
	d.buckets[bucketOf(v)]++
}

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := 0
	for v >= 2 && b < 63 {
		v /= 2
		b++
	}
	return b
}

// Count returns the number of samples.
func (d *Distribution) Count() uint64 { return d.count }

// Mean returns the arithmetic mean (0 with no samples).
func (d *Distribution) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Min returns the smallest sample.
func (d *Distribution) Min() float64 { return d.min }

// Max returns the largest sample.
func (d *Distribution) Max() float64 { return d.max }

// Quantile returns the q-quantile (0 <= q <= 1). In histogram mode the
// value is the lower bound of the containing log2 bucket, which is
// sufficient for the paper's order-of-magnitude lifetime plot.
func (d *Distribution) Quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	if d.buckets == nil {
		s := append([]float64(nil), d.samples...)
		sort.Float64s(s)
		idx := int(q * float64(len(s)-1))
		return s[idx]
	}
	target := uint64(q * float64(d.count-1))
	var cum uint64
	for b, n := range d.buckets {
		cum += n
		if cum > target {
			if b == 0 {
				return 0
			}
			return float64(uint64(1) << uint(b))
		}
	}
	return d.max
}

// LifetimeTracker measures object lifetimes per class: Fig 2d plots the
// mean lifetime of application pages vs slab objects vs page cache
// pages on a log axis. It keeps no per-object state: each object
// carries its own birth stamp (kobj.Object.Born, memsim.Frame.Allocated)
// and hands it over when it dies.
type LifetimeTracker struct {
	dist map[string]*Distribution
}

// NewLifetimeTracker returns an empty tracker.
func NewLifetimeTracker() *LifetimeTracker {
	return &LifetimeTracker{dist: make(map[string]*Distribution)}
}

// Died records the death at t of an object born at born, attributing
// the lifetime to class. Callers record each death once.
func (lt *LifetimeTracker) Died(class string, born, t sim.Time) {
	d := lt.dist[class]
	if d == nil {
		d = &Distribution{}
		lt.dist[class] = d
	}
	d.Observe(float64(t.Sub(born)))
}

// Class returns the lifetime distribution for a class (nil if the class
// never recorded a death).
func (lt *LifetimeTracker) Class(class string) *Distribution { return lt.dist[class] }

// Classes returns class names in sorted order.
func (lt *LifetimeTracker) Classes() []string {
	out := make([]string, 0, len(lt.dist))
	for k := range lt.dist {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MeanLifetime returns the mean lifetime for class as a sim.Duration.
func (lt *LifetimeTracker) MeanLifetime(class string) sim.Duration {
	d := lt.dist[class]
	if d == nil {
		return 0
	}
	return sim.Duration(d.Mean())
}
