package memsim

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"kloc/internal/sim"
)

// refMemory is a plain per-event reference for Memory's accounting:
// every counter is a direct increment into a map or array at the
// moment of the event, with no batching, pooling or dense indexing.
type refMemory struct {
	live       []*refFrame
	nodeUsed   []int
	used       [][6]int
	allocs     [][6]uint64
	refs       [6]uint64
	bytes      [6]uint64
	refsByNode map[NodeID]uint64
	moves      uint64
	migrated   uint64
}

type refFrame struct {
	f     *Frame
	id    FrameID
	node  NodeID
	class Class
	pages int
}

func newRefMemory(nodes int) *refMemory {
	return &refMemory{
		nodeUsed:   make([]int, nodes),
		used:       make([][6]int, nodes),
		allocs:     make([][6]uint64, nodes),
		refsByNode: make(map[NodeID]uint64),
	}
}

// referenceMemory builds a three-node, two-socket platform small
// enough that a few hundred operations exhaust nodes and force failed
// allocations and refused moves.
func referenceMemory() *Memory {
	nodes := []*Node{
		{ID: 0, Kind: DRAM, Socket: 0, Capacity: 24, ReadLatency: 90, WriteLatency: 90, Bandwidth: 30},
		{ID: 1, Kind: DRAM, Socket: 0, Capacity: 48, ReadLatency: 360, WriteLatency: 360, Bandwidth: 7.5},
		{ID: 2, Kind: PMEM, Socket: 1, Capacity: 96, ReadLatency: 300, WriteLatency: 500, Bandwidth: 8},
	}
	return New(nodes, []int{0, 0, 1, 1}, 120)
}

// TestAccountingMatchesReference drives a seeded random sequence of
// AllocOrder/Access/MoveFrame/Free calls (double frees included)
// through Memory and through refMemory, and after SyncStats requires
// every accounting read to agree: Stats.Refs/BytesTouched/RefsByNode/
// AllocsByClassNode, MigratedPages, per-class occupancy, KernelUsed,
// the live frames EachLive visits and FramesOn. Reads happen at random points mid-sequence too, so a stale
// batched value cannot hide behind a final flush.
func TestAccountingMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42} {
		m := referenceMemory()
		ref := newRefMemory(len(m.Nodes))
		rng := sim.NewRNG(seed)
		var lastID FrameID
		for step := 0; step < 4000; step++ {
			now := sim.Time(step)
			switch op := rng.Intn(100); {
			case op < 35:
				node := NodeID(rng.Intn(len(m.Nodes)))
				class := Class(1 + rng.Intn(5))
				order := uint8(rng.Intn(3))
				pages := 1 << order
				f, err := m.AllocOrder(node, class, order, now)
				if full := ref.nodeUsed[node]+pages > m.Node(node).Capacity; full {
					if !errors.Is(err, ErrNoMemory) {
						t.Fatalf("seed %d step %d: alloc on full node %d: err %v, want ENOMEM", seed, step, node, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d step %d: alloc: %v", seed, step, err)
				}
				if f.ID <= lastID {
					t.Fatalf("seed %d step %d: frame ID %d reused (last %d)", seed, step, f.ID, lastID)
				}
				lastID = f.ID
				ref.live = append(ref.live, &refFrame{f: f, id: f.ID, node: node, class: class, pages: pages})
				ref.nodeUsed[node] += pages
				ref.used[node][class] += pages
				ref.allocs[node][class] += uint64(pages)
			case op < 70 && len(ref.live) > 0:
				rf := ref.live[rng.Intn(len(ref.live))]
				cpu := rng.Intn(len(m.CPUSocket)+2) - 1 // out-of-range CPUs included
				n := 64 * (1 + rng.Intn(64))
				m.Access(cpu, rf.f, n, rng.Bool(0.5), now)
				ref.refs[rf.class]++
				ref.bytes[rf.class] += uint64(n)
				ref.refsByNode[rf.node]++
			case op < 80 && len(ref.live) > 0:
				rf := ref.live[rng.Intn(len(ref.live))]
				dst := NodeID(rng.Intn(len(m.Nodes)))
				_, err := m.MoveFrame(rf.f, dst, 0)
				ok := dst != rf.node && m.Node(dst).Capacity-ref.nodeUsed[dst] >= rf.pages
				if ok != (err == nil) {
					t.Fatalf("seed %d step %d: move %d->%d: err %v, want ok=%v", seed, step, rf.node, dst, err, ok)
				}
				if ok {
					ref.nodeUsed[rf.node] -= rf.pages
					ref.used[rf.node][rf.class] -= rf.pages
					ref.nodeUsed[dst] += rf.pages
					ref.used[dst][rf.class] += rf.pages
					ref.moves++
					ref.migrated += uint64(rf.pages)
					rf.node = dst
				}
			case len(ref.live) > 0:
				i := rng.Intn(len(ref.live))
				rf := ref.live[i]
				m.Free(rf.f)
				if rng.Bool(0.1) {
					// Double free before the struct is recycled: a no-op.
					m.Free(rf.f)
				}
				ref.live = append(ref.live[:i], ref.live[i+1:]...)
				ref.nodeUsed[rf.node] -= rf.pages
				ref.used[rf.node][rf.class] -= rf.pages
			}
			if op := rng.Intn(100); op < 5 || step == 3999 {
				ref.check(t, m, seed, step)
			}
		}
	}
}

func (ref *refMemory) check(t *testing.T, m *Memory, seed uint64, step int) {
	t.Helper()
	m.SyncStats()
	s := &m.Stats
	if s.Refs != ref.refs || s.BytesTouched != ref.bytes {
		t.Fatalf("seed %d step %d: refs %v bytes %v, reference %v %v", seed, step, s.Refs, s.BytesTouched, ref.refs, ref.bytes)
	}
	if len(s.RefsByNode) != len(ref.refsByNode) {
		t.Fatalf("seed %d step %d: RefsByNode %v, reference %v", seed, step, s.RefsByNode, ref.refsByNode)
	}
	for node, n := range ref.refsByNode {
		if s.RefsByNode[node] != n {
			t.Fatalf("seed %d step %d: RefsByNode %v, reference %v", seed, step, s.RefsByNode, ref.refsByNode)
		}
	}
	if s.MigratedPages != ref.migrated || s.Promotions+s.Demotions != ref.moves {
		t.Fatalf("seed %d step %d: migrated %d pages in %d+%d moves, reference %d in %d",
			seed, step, s.MigratedPages, s.Promotions, s.Demotions, ref.migrated, ref.moves)
	}
	var live, refLive []FrameID
	m.EachLive(func(f *Frame) { live = append(live, f.ID) })
	for _, rf := range ref.live {
		refLive = append(refLive, rf.id)
	}
	slices.Sort(live)
	slices.Sort(refLive)
	if !slices.Equal(live, refLive) {
		t.Fatalf("seed %d step %d: live frames %v, reference %v", seed, step, live, refLive)
	}
	for i, n := range m.Nodes {
		id := NodeID(i)
		if got := *s.AllocsByClassNode[id]; got != ref.allocs[i] {
			t.Fatalf("seed %d step %d: node %d allocs %v, reference %v", seed, step, i, got, ref.allocs[i])
		}
		if n.Used() != ref.nodeUsed[i] {
			t.Fatalf("seed %d step %d: node %d used %d, reference %d", seed, step, i, n.Used(), ref.nodeUsed[i])
		}
		kernel := 0
		for c := Class(0); c < 6; c++ {
			if got := m.usedDense[id][c]; got != ref.used[i][c] {
				t.Fatalf("seed %d step %d: node %d class %s used %d, reference %d", seed, step, i, c, got, ref.used[i][c])
			}
			if c.Kernel() {
				kernel += ref.used[i][c]
			}
		}
		if got := m.KernelUsed(id); got != kernel {
			t.Fatalf("seed %d step %d: node %d kernel used %d, reference %d", seed, step, i, got, kernel)
		}
		var want []FrameID
		for _, rf := range ref.live {
			if rf.node == id {
				want = append(want, rf.id)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		on := m.FramesOn(id)
		if len(on) != len(want) {
			t.Fatalf("seed %d step %d: node %d has %d frames, reference %d", seed, step, i, len(on), len(want))
		}
		for j, f := range on {
			if f.ID != want[j] || f.Node != id {
				t.Fatalf("seed %d step %d: node %d frame %d is %d on node %d, reference %d", seed, step, i, j, f.ID, f.Node, want[j])
			}
		}
	}
}
