package trace

import (
	"testing"

	"kloc/internal/sim"
)

// emitStream is one steady-state event stream: emit sends event i,
// stamped at i*100 ns, into a tracer.
type emitStream struct {
	name string
	emit func(tr *Tracer, i int)
}

var emitStreams = []emitStream{
	// One name, the context changing every event.
	{"one-name", func(tr *Tracer, i int) {
		tr.Emit(AllocSlab, sim.Time(i*100), uint64(1+i&7), uint64(i), "inode", 0, 600)
	}},
	// A bursty stream: the context changes every 256 events, so the
	// run-length summary path both extends and flushes, and four names
	// rotate, so the name-state lookup misses its MRU register on
	// every event.
	{"burst", func(tr *Tracer, i int) {
		now, ctx := sim.Time(i*100), uint64(1+(i>>8)&7)
		switch i & 3 {
		case 0:
			tr.Emit(AllocSlab, now, ctx, uint64(i), "cache", 0, 64)
		case 1:
			tr.Emit(AllocPage, now, ctx, uint64(i), "cache", 0, 64)
		case 2:
			tr.Emit(ObjFree, now, ctx, uint64(i), "cache", 0, 64)
		default:
			tr.Emit(NetRx, now, ctx, uint64(i), "cache", 0, 64)
		}
	}},
}

// warmEmit builds a tracer for s and runs it past the ring's wrap point
// and through every context, so the loop that follows is steady state.
// It returns the index of the next event.
func warmEmit(s emitStream) (*Tracer, int) {
	tr := New(Config{})
	const warm = bufferEvents + 1<<14
	for i := 0; i < warm; i++ {
		s.emit(tr, i)
	}
	return tr, warm
}

// TestEmitSteadyStateAllocFree: once the ring and the per-context
// tables are warm, Emit must not touch the heap — the ring recycles
// Event slots, the merged name-state table and MRU register avoid
// per-event map inserts, and summary counts commit in run lengths.
func TestEmitSteadyStateAllocFree(t *testing.T) {
	for _, s := range emitStreams {
		tr, i := warmEmit(s)
		avg := testing.AllocsPerRun(200, func() {
			for j := 0; j < 64; j++ {
				s.emit(tr, i)
				i++
			}
		})
		if avg != 0 {
			t.Errorf("%s: Emit allocated %.2f objects per 64-event burst in steady state", s.name, avg)
		}
	}
}

// BenchmarkEmit times the steady-state streams of
// TestEmitSteadyStateAllocFree, one event per op.
func BenchmarkEmit(b *testing.B) {
	for _, s := range emitStreams {
		b.Run(s.name, func(b *testing.B) {
			tr, i := warmEmit(s)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				s.emit(tr, i+n)
			}
		})
	}
}
