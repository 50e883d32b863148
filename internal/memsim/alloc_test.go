package memsim

import (
	"math"
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

// TestFrameChunkFitsSizeClass: a chunk of Frames plus Go's 8-byte
// malloc header fills the 16 KiB size class, and one more frame would
// spill into the next class, so a Frame that grows cannot silently
// leave chunks in a wasteful class.
func TestFrameChunkFitsSizeClass(t *testing.T) {
	const header, class = 8, 16384
	size := unsafe.Sizeof(Frame{})
	if used := frameChunk*size + header; used > class {
		t.Errorf("%d frames of %d B + header = %d B, over the %d B class", frameChunk, size, used, class)
	}
	if next := (frameChunk+1)*size + header; next <= class {
		t.Errorf("%d frames of %d B + header = %d B still fit the %d B class: raise frameChunk", frameChunk+1, size, next, class)
	}
}

// TestFreshFramesComeInChunks: fresh frames are carved frameChunk at a
// time, so allocating 2·frameChunk of them costs exactly two heap
// objects.
func TestFreshFramesComeInChunks(t *testing.T) {
	m := NewTwoTier(DefaultTwoTier(1))
	// AllocsPerRun makes one warm-up pass before the measured one; size
	// the live table for both so only the chunks are counted.
	m.live = make([]*Frame, 0, 4*frameChunk)
	avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2*frameChunk; i++ {
			if _, err := m.Alloc(FastNode, ClassApp, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 2 {
		t.Errorf("allocating %d fresh frames made %.0f heap objects, want 2", 2*frameChunk, avg)
	}
	if pc := m.PerfCounters(); pc.FramesFresh != 4*frameChunk || pc.FramesReused != 0 {
		t.Errorf("fresh=%d reused=%d, want %d fresh", pc.FramesFresh, pc.FramesReused, 4*frameChunk)
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

// TestNextStampWraps: walk stamps count up from 1, and when the
// counter wraps NextStamp skips 0 and first clears every live frame's
// stamp, so a stamp from before the wrap matches no later walk. A
// recycled frame starts from 0 like a fresh one.
func TestNextStampWraps(t *testing.T) {
	m := NewTwoTier(DefaultTwoTier(1024))
	var frames [4]*Frame
	for i := range frames {
		f, err := m.Alloc(FastNode, ClassCache, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Stamp != 0 {
			t.Fatalf("fresh frame %d carries stamp %d", f.ID, f.Stamp)
		}
		frames[i] = f
	}
	for i, f := range frames {
		if s := m.NextStamp(); s != uint32(i+1) {
			t.Fatalf("walk %d got stamp %d, want %d", i+1, s, i+1)
		}
		f.Stamp = m.stamp
	}
	m.Free(frames[3])
	m.stamp = math.MaxUint32 - 1
	if s := m.NextStamp(); s != math.MaxUint32 {
		t.Fatalf("stamp before the wrap = %d", s)
	}
	frames[0].Stamp = math.MaxUint32
	if s := m.NextStamp(); s != 1 {
		t.Fatalf("the wrap issued stamp %d, want 1", s)
	}
	for _, f := range frames[:3] {
		if f.Stamp != 0 {
			t.Errorf("live frame %d kept stamp %d across the wrap", f.ID, f.Stamp)
		}
	}
	if f, err := m.Alloc(FastNode, ClassCache, 0); err != nil || f != frames[3] || f.Stamp != 0 {
		t.Errorf("recycled frame: err %v, same struct %v, stamp %d", err, f == frames[3], f.Stamp)
	}
}
