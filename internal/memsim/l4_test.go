package memsim

import (
	"fmt"
	"testing"

	"kloc/internal/sim"
)

// len reports the entries the cache holds, ghosts included: every
// slab entry but the sentinel records some frame from the moment it is
// appended.
func (c *l4Cache) len() int { return len(c.entries) - 1 }

// refL4Cache is the L4 cache as it was before its entries moved into a
// slab reached from the frame: a FrameID-keyed map with a fresh entry
// on every miss. It is kept only as the reference
// TestL4CacheMatchesReference holds l4Cache to, for the capacities it
// handled (one page and up).
type refL4Cache struct {
	capacity   int
	entries    map[FrameID]*refL4Entry
	head, tail *refL4Entry
}

type refL4Entry struct {
	id         FrameID
	prev, next *refL4Entry
}

func (c *refL4Cache) access(id FrameID) bool {
	if e, ok := c.entries[id]; ok {
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	if len(c.entries) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.id)
	}
	e := &refL4Entry{id: id}
	c.entries[id] = e
	c.pushFront(e)
	return false
}

func (c *refL4Cache) unlink(e *refL4Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *refL4Cache) pushFront(e *refL4Entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// diff describes how c differs from the reference in length or
// recency order, or returns "".
func (c *refL4Cache) diff(got *l4Cache) string {
	if got.len() != len(c.entries) {
		return fmt.Sprintf("%d entries, reference %d", got.len(), len(c.entries))
	}
	i, e := got.entries[0].next, c.head
	for ; i != 0 && e != nil; i, e = got.entries[i].next, e.next {
		if got.entries[i].id != e.id {
			return fmt.Sprintf("recency order diverges at %d, reference %d", got.entries[i].id, e.id)
		}
	}
	if i != 0 || e != nil {
		return "recency lists differ in length"
	}
	return ""
}

// l4Platform is a small two-socket Optane platform with an L4 of
// capacity pages per socket; CPUs 0-1 sit on socket 0, CPUs 2-3 on
// socket 1.
func l4Platform(capacity int) *Memory {
	return NewOptane(OptaneConfig{
		PMEMPages: 1 << 12, L4Pages: capacity,
		PMEMReadLatency: 300, PMEMWriteLatency: 500, PMEMBandwidth: 8,
		DRAMLatency: 90, DRAMBandwidth: 25, Interconnect: 120, CPUsPerSock: 2,
	})
}

// l4Access reads f from cpu and reports whether the access went
// through an L4 cache and whether it hit there.
func l4Access(m *Memory, cpu int, f *Frame) (cached, hit bool) {
	h, ms := m.Stats.L4Hits, m.Stats.L4Misses
	m.Access(cpu, f, 64, false, 0)
	return m.Stats.L4Hits+m.Stats.L4Misses != h+ms, m.Stats.L4Hits != h
}

// TestL4CacheMatchesReference drives frames of a two-socket Memory
// through allocation, accesses from both sockets, frees (whose entries
// stay as ghosts), recycling of freed Frame structs and moves to the
// other socket and back, and compares the L4 caches with one
// FrameID-keyed reference per socket: every hit or miss, and after
// every step each cache's length and recency order, and that its slab
// never has room for more than capacity+1 entries. Accesses favour a
// hot set that fits, so the sequence mixes hits, misses and
// evictions, and some frames return to a socket whose cache still
// holds their entry.
func TestL4CacheMatchesReference(t *testing.T) {
	returnsToEntry := 0
	for _, capacity := range []int{1, 2, 3, 17, 64} {
		r := sim.NewRNG(uint64(capacity))
		m := l4Platform(capacity)
		var ref [l4Sockets]*refL4Cache
		for s := range ref {
			ref[s] = &refL4Cache{capacity: capacity, entries: make(map[FrameID]*refL4Entry)}
		}
		var live []*Frame
		hits, misses, returns := 0, 0, 0
		for step := 0; step < 20000; step++ {
			op := r.Intn(100)
			switch {
			case op < 15 || len(live) == 0:
				if len(live) >= 4*capacity+8 {
					continue
				}
				f, err := m.Alloc(NodeID(r.Intn(2)), ClassApp, 0)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, f)
			case op < 27:
				i := r.Intn(len(live))
				m.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 39:
				f := live[r.Intn(len(live))]
				dst := 1 - f.Node
				if _, ok := ref[dst].entries[f.ID]; ok {
					returns++
				}
				if _, err := m.MoveFrame(f, dst, 0); err != nil {
					t.Fatal(err)
				}
			default:
				i := r.Intn(len(live))
				if r.Bool(0.7) {
					i = r.Intn(min(len(live), capacity+1))
				}
				f, cpu := live[i], r.Intn(4)
				sock := m.SocketOf(cpu)
				cached, hit := l4Access(m, cpu, f)
				if want := sock == m.Node(f.Node).Socket; cached != want {
					t.Fatalf("capacity %d step %d: frame %d on node %d from cpu %d went through the L4: %v, want %v",
						capacity, step, f.ID, f.Node, cpu, cached, want)
				}
				if !cached {
					break
				}
				if want := ref[sock].access(f.ID); hit != want {
					t.Fatalf("capacity %d step %d: socket %d access to frame %d hit=%v, reference %v",
						capacity, step, sock, f.ID, hit, want)
				}
				if hit {
					hits++
				} else {
					misses++
				}
			}
			for s := range ref {
				if d := ref[s].diff(m.l4[s]); d != "" {
					t.Fatalf("capacity %d step %d: socket %d: %s", capacity, step, s, d)
				}
				if c := cap(m.l4[s].entries); c > capacity+1 {
					t.Fatalf("capacity %d step %d: socket %d's slab has room for %d entries, more than capacity+1", capacity, step, s, c)
				}
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("capacity %d: %d hits, %d misses; the sequence does not mix them", capacity, hits, misses)
		}
		if m.PerfCounters().FramesReused == 0 {
			t.Fatalf("capacity %d: no Frame struct was recycled", capacity)
		}
		t.Logf("capacity %d: %d hits, %d misses, %d moves back to a socket still caching the frame",
			capacity, hits, misses, returns)
		returnsToEntry += returns
	}
	if returnsToEntry == 0 {
		t.Fatal("no frame moved back to a socket whose cache still held its entry")
	}
}

func TestL4Cache(t *testing.T) {
	m := l4Platform(3)
	var frames [4]*Frame
	for i := range frames {
		var err error
		if frames[i], err = m.Alloc(Socket0Node, ClassApp, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frames[:3] {
		if _, hit := l4Access(m, 0, f); hit {
			t.Fatalf("cold access to %d hit", f.ID)
		}
	}
	for _, f := range frames[:3] {
		if _, hit := l4Access(m, 0, f); !hit {
			t.Fatalf("warm access to %d missed", f.ID)
		}
	}
	l4Access(m, 0, frames[3]) // evicts LRU = frames[0]
	if _, hit := l4Access(m, 0, frames[0]); hit {
		t.Fatal("evicted entry still hit")
	}
	if n := m.l4[0].len(); n != 3 {
		t.Fatalf("cache size %d", n)
	}
}

// TestL4CacheOfNoPagesMissesEverything: a cache sized below one page,
// as DefaultOptane gives at a large enough scale divisor, holds nothing
// and misses every access.
func TestL4CacheOfNoPagesMissesEverything(t *testing.T) {
	const n = 100
	m := NewOptane(DefaultOptane(GB(16) + 1))
	if c := m.l4[0]; c == nil || c.capacity != 0 {
		t.Fatal("DefaultOptane at this scale should attach an L4 of no pages")
	}
	var frames [3]*Frame
	for i := range frames {
		var err error
		if frames[i], err = m.Alloc(Socket0Node, ClassApp, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if cost := m.Access(0, frames[i%3], 64, false, sim.Time(i)); cost <= 90 {
			t.Fatalf("access %d cost %v: paid no more than an L4 hit", i, cost)
		}
	}
	if m.Stats.L4Misses != n || m.Stats.L4Hits != 0 {
		t.Fatalf("L4 hits/misses %d/%d, want 0/%d", m.Stats.L4Hits, m.Stats.L4Misses, n)
	}
	if c := m.l4[0].len(); c != 0 {
		t.Fatalf("a cache of no pages holds %d entries", c)
	}
}

// TestAttachL4RejectsSocketsWithoutSlots: frames keep L4 slots for two
// sockets, so a cache on any other socket is a construction error.
func TestAttachL4RejectsSocketsWithoutSlots(t *testing.T) {
	m := New([]*Node{{ID: 0, Kind: PMEM, Capacity: 8}}, []int{0, 1, 2}, 0)
	for _, socket := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AttachL4 on socket %d did not panic", socket)
				}
			}()
			m.AttachL4(socket, 8, 90, 25)
		}()
	}
	m.AttachL4(1, 8, 90, 25)
}

// l4Window is the loop of TestL4AccessIsAllocFree and BenchmarkL4Access:
// 256 live PMEM frames, half on each socket of a platform with a
// 64-page L4 per socket, read round-robin from a CPU on the frame's own
// socket and then written, so each op misses once and hits once.
type l4Window struct {
	m      *Memory
	frames [256]*Frame
	i      int
}

func newL4Window() *l4Window {
	w := &l4Window{m: l4Platform(64)}
	for i := range w.frames {
		f, err := w.m.Alloc(NodeID(i&1), ClassCache, 0)
		if err != nil {
			panic(err)
		}
		w.frames[i] = f
	}
	for w.i < 2*len(w.frames) {
		w.op()
	}
	return w
}

func (w *l4Window) op() {
	f := w.frames[w.i%len(w.frames)]
	cpu, now := 2*int(f.Node), sim.Time(w.i)
	w.m.Access(cpu, f, 64, false, now)
	w.m.Access(cpu, f, 64, true, now)
	w.i++
}

// TestL4AccessIsAllocFree: once the slabs are full, L4 hits and
// evictions allocate nothing.
func TestL4AccessIsAllocFree(t *testing.T) {
	w := newL4Window()
	hits, misses := w.m.Stats.L4Hits, w.m.Stats.L4Misses
	if avg := testing.AllocsPerRun(1000, w.op); avg != 0 {
		t.Errorf("L4 access allocated %.2f objects per op", avg)
	}
	if w.m.Stats.L4Hits == hits || w.m.Stats.L4Misses == misses {
		t.Errorf("the loop made %d hits and %d misses; it must make both",
			w.m.Stats.L4Hits-hits, w.m.Stats.L4Misses-misses)
	}
}

// BenchmarkL4Access times the loop of TestL4AccessIsAllocFree, one op
// (a miss and a hit) per iteration.
func BenchmarkL4Access(b *testing.B) {
	w := newL4Window()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		w.op()
	}
}
