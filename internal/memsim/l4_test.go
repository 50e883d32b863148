package memsim

import (
	"testing"

	"kloc/internal/sim"
)

// refL4Cache is the L4 cache as it was before it reused evicted
// entries: a fresh entry on every miss. It is kept only as the
// reference TestL4CacheMatchesReference holds l4Cache to, for the
// capacities it always handled (one page and up).
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

// TestL4CacheMatchesReference drives the reusing cache and the
// allocate-on-miss reference through a long access sequence, mostly
// over a hot set that fits and partly over a cold range that does not,
// and compares every hit or miss, the size and the recency order.
func TestL4CacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 17, 64} {
		r := sim.NewRNG(uint64(capacity))
		got := newL4Cache(capacity, 90, 25)
		want := &refL4Cache{capacity: capacity, entries: make(map[FrameID]*refL4Entry)}
		hits := 0
		for step := 0; step < 20000; step++ {
			id := FrameID(r.Intn(capacity + 1))
			if r.Bool(0.3) {
				id = FrameID(capacity + r.Intn(8*capacity))
			}
			g, w := got.access(id), want.access(id)
			if g != w {
				t.Fatalf("capacity %d step %d: access(%d) hit=%v, reference %v", capacity, step, id, g, w)
			}
			if g {
				hits++
			}
			if got.len() != len(want.entries) {
				t.Fatalf("capacity %d step %d: %d entries, reference %d", capacity, step, got.len(), len(want.entries))
			}
			ge, we := got.head, want.head
			for ; ge != nil && we != nil; ge, we = ge.next, we.next {
				if ge.id != we.id {
					t.Fatalf("capacity %d step %d: recency order diverges at %d, reference %d", capacity, step, ge.id, we.id)
				}
			}
			if ge != nil || we != nil {
				t.Fatalf("capacity %d step %d: recency lists differ in length", capacity, step)
			}
		}
		if hits == 0 || hits == 20000 {
			t.Fatalf("capacity %d: %d hits in 20000 accesses; the sequence does not mix hits and misses", capacity, hits)
		}
	}
}

// TestL4CacheOfNoPagesMissesEverything: a cache sized below one page,
// as DefaultOptane gives at a large enough scale divisor, holds nothing
// and misses every access.
func TestL4CacheOfNoPagesMissesEverything(t *testing.T) {
	const n = 100
	c := newL4Cache(0, 90, 25)
	for i := 0; i < n; i++ {
		if c.access(FrameID(i % 3)) {
			t.Fatalf("access %d hit a cache of no pages", i)
		}
	}
	if c.len() != 0 {
		t.Fatalf("a cache of no pages holds %d entries", c.len())
	}

	m := NewOptane(DefaultOptane(GB(16) + 1))
	if c := m.l4[0]; c == nil || c.capacity != 0 {
		t.Fatal("DefaultOptane at this scale should attach an L4 of no pages")
	}
	f, err := m.Alloc(Socket0Node, ClassApp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if cost := m.Access(0, f, 64, false, sim.Time(i)); cost <= 90 {
			t.Fatalf("access %d cost %v: paid no more than an L4 hit", i, cost)
		}
	}
	if m.Stats.L4Misses != n || m.Stats.L4Hits != 0 {
		t.Fatalf("L4 hits/misses %d/%d, want 0/%d", m.Stats.L4Hits, m.Stats.L4Misses, n)
	}
}
