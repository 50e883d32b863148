package memsim

import (
	"testing"
	"unsafe"

	"kloc/internal/sim"
)

// TestFrameSize: the slab counters (InUse, Bump) sit in padding, so a
// Frame stays 96 bytes.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 96 {
		t.Fatalf("Frame is %d bytes, want 96", n)
	}
}

// churn is the state of one steady-state alloc/access/free loop; each
// pattern method runs op c.i and advances it.
type churn struct {
	m    *Memory
	i    int
	ring [64]*Frame // window's live frames, fixed so the loop allocates nothing itself
}

// allocFree allocates a frame, writes it and frees it again.
func (c *churn) allocFree() {
	f, err := c.m.AllocOrder(FastNode, ClassApp, 0, 0)
	if err != nil {
		panic(err)
	}
	c.m.Access(0, f, 64, true, 0)
	c.m.Free(f)
	c.i++
}

// window keeps 64 frames live: each op allocates a frame, touches it
// from CPU i&3, reading and writing by turns, and frees the frame
// allocated 64 ops earlier.
func (c *churn) window() {
	now := sim.Time(c.i)
	f, err := c.m.AllocOrder(FastNode, ClassCache, 0, now)
	if err != nil {
		panic(err)
	}
	c.m.Access(c.i&3, f, 256, c.i&1 == 0, now)
	slot := c.i % len(c.ring)
	c.m.Free(c.ring[slot])
	c.ring[slot] = f
	c.i++
}

var churnPatterns = []struct {
	name string
	op   func(*churn)
}{
	{"alloc-free", (*churn).allocFree},
	{"window", (*churn).window},
}

// warmChurn runs op on a fresh memory past its first generations of
// frames, so the loop that follows is steady state.
func warmChurn(op func(*churn)) *churn {
	c := &churn{m: NewTwoTier(DefaultTwoTier(1024))}
	for c.i < 1<<10 {
		op(c)
	}
	return c
}

// TestPooledAllocFreeIsAllocFree: a steady-state alloc/access/free
// churn must recycle Frame structs instead of handing garbage to the
// collector.
func TestPooledAllocFreeIsAllocFree(t *testing.T) {
	for _, p := range churnPatterns {
		c := warmChurn(p.op)
		if avg := testing.AllocsPerRun(200, func() { p.op(c) }); avg != 0 {
			t.Errorf("%s: pooled alloc/access/free allocated %.2f objects per op", p.name, avg)
		}
		if pc := c.m.PerfCounters(); pc.FramesReused == 0 {
			t.Errorf("%s: pool never reused a frame (fresh=%d reused=%d)", p.name, pc.FramesFresh, pc.FramesReused)
		}
	}
}

// BenchmarkFrameChurn times the patterns of
// TestPooledAllocFreeIsAllocFree, one op per iteration.
func BenchmarkFrameChurn(b *testing.B) {
	for _, p := range churnPatterns {
		b.Run(p.name, func(b *testing.B) {
			c := warmChurn(p.op)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				p.op(c)
			}
		})
	}
}
