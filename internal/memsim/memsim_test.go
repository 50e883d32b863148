package memsim

import (
	"testing"
	"testing/quick"

	"kloc/internal/sim"
)

func testMem() *Memory {
	return NewTwoTier(TwoTierConfig{
		FastPages: 100, SlowPages: 1000,
		FastBandwidth: 30, BandwidthRatio: 4,
		FastLatency: 90, SlowLatency: 130, CPUs: 4,
	})
}

func TestAllocFree(t *testing.T) {
	m := testMem()
	f, err := m.Alloc(FastNode, ClassApp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f.Node != FastNode || f.Class != ClassApp || f.Allocated != 10 {
		t.Fatalf("bad frame: %+v", f)
	}
	if m.Node(FastNode).Used() != 1 || len(m.live) != 1 {
		t.Fatal("occupancy wrong after alloc")
	}
	m.Free(f)
	if m.Node(FastNode).Used() != 0 || len(m.live) != 0 {
		t.Fatal("occupancy wrong after free")
	}
	m.Free(f) // double free is a no-op
	if m.Node(FastNode).Used() != 0 {
		t.Fatal("double free changed occupancy")
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := testMem()
	for i := 0; i < 100; i++ {
		if _, err := m.Alloc(FastNode, ClassApp, 0); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := m.Alloc(FastNode, ClassApp, 0); err != ErrNoMemory {
		t.Fatalf("expected ErrNoMemory, got %v", err)
	}
	// Fallback lands on the slow node.
	f, err := m.AllocFallback([]NodeID{FastNode, SlowNode}, ClassCache, 0)
	if err != nil || f.Node != SlowNode {
		t.Fatalf("fallback: %v %+v", err, f)
	}
}

func TestAccessCostOrdering(t *testing.T) {
	m := testMem()
	ff, _ := m.Alloc(FastNode, ClassApp, 0)
	fs, _ := m.Alloc(SlowNode, ClassApp, 0)
	cf := m.Access(0, ff, PageSize, false, 1)
	cs := m.Access(0, fs, PageSize, false, 1)
	if cf >= cs {
		t.Fatalf("fast access (%v) not cheaper than slow (%v)", cf, cs)
	}
	if ff.LastAccess != 1 || fs.LastAccess != 1 {
		t.Fatal("LastAccess not updated")
	}
	if m.Stats.Refs[ClassApp] != 2 {
		t.Fatalf("refs = %d", m.Stats.Refs[ClassApp])
	}
}

// TestAccessDirtyAndBytes: a write access counts its bytes against the
// frame's class, like a read. A dirty page-cache page is marked on its
// kernel object (kobj.Object.Dirty), not on the frame.
func TestAccessDirtyAndBytes(t *testing.T) {
	m := testMem()
	f, _ := m.Alloc(FastNode, ClassCache, 0)
	m.Access(0, f, 512, true, 5)
	if m.Stats.BytesTouched[ClassCache] != 512 {
		t.Fatalf("bytes touched = %d", m.Stats.BytesTouched[ClassCache])
	}
}

func TestMigration(t *testing.T) {
	m := testMem()
	f, _ := m.Alloc(FastNode, ClassCache, 0)
	if !m.CanMigrate(f, SlowNode) {
		t.Fatal("frame should be movable")
	}
	cost, err := m.MoveFrame(f, SlowNode, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 1000 {
		t.Fatalf("migration cost %v too low", cost)
	}
	if f.Node != SlowNode || f.Migrations != 1 {
		t.Fatalf("frame after move: %+v", f)
	}
	if m.Node(FastNode).Used() != 0 || m.Node(SlowNode).Used() != 1 {
		t.Fatal("occupancy wrong after move")
	}
	if m.Stats.Demotions != 1 || m.Stats.Promotions != 0 {
		t.Fatalf("direction stats: %+v", m.Stats)
	}
	if _, err := m.MoveFrame(f, FastNode, 1000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Promotions != 1 {
		t.Fatal("promotion not counted")
	}
}

func TestPinnedFramesDoNotMigrate(t *testing.T) {
	m := testMem()
	f, _ := m.Alloc(FastNode, ClassSlab, 0)
	f.Pinned = true
	if m.CanMigrate(f, SlowNode) {
		t.Fatal("pinned frame reported movable")
	}
	mg := &Migrator{Mem: m, FixedPerPage: 1000, Parallelism: 4}
	moved, _, _ := mg.Migrate([]*Frame{f}, SlowNode, 0)
	if moved != 0 {
		t.Fatal("migrator moved a pinned frame")
	}
}

func TestMigrateToSameNode(t *testing.T) {
	m := testMem()
	f, _ := m.Alloc(FastNode, ClassApp, 0)
	if m.CanMigrate(f, FastNode) {
		t.Fatal("same-node migration allowed")
	}
}

func TestMigrateToFullNodeRefused(t *testing.T) {
	m := NewTwoTier(TwoTierConfig{FastPages: 1, SlowPages: 1, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1})
	a, _ := m.Alloc(FastNode, ClassApp, 0)
	if _, err := m.Alloc(SlowNode, ClassApp, 0); err != nil {
		t.Fatal(err)
	}
	if m.CanMigrate(a, SlowNode) {
		t.Fatal("migration into a full node allowed")
	}
}

func TestMigratorParallelism(t *testing.T) {
	mkFrames := func(m *Memory, n int) []*Frame {
		out := make([]*Frame, n)
		for i := range out {
			f, err := m.Alloc(FastNode, ClassCache, 0)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = f
		}
		return out
	}
	m1 := testMem()
	serial := &Migrator{Mem: m1, FixedPerPage: 1000, Parallelism: 1}
	_, _, c1 := serial.Migrate(mkFrames(m1, 50), SlowNode, 0)

	m2 := testMem()
	par := &Migrator{Mem: m2, FixedPerPage: 1000, Parallelism: 4}
	moved, _, c4 := par.Migrate(mkFrames(m2, 50), SlowNode, 0)
	if moved != 50 {
		t.Fatalf("moved %d", moved)
	}
	if c4*3 > c1 {
		t.Fatalf("parallel migration (%v) not ~4x cheaper than serial (%v)", c4, c1)
	}
}

func TestMigrationCounterSaturates(t *testing.T) {
	m := testMem()
	f, _ := m.Alloc(FastNode, ClassApp, 0)
	for i := 0; i < 300; i++ {
		dst := SlowNode
		if f.Node == SlowNode {
			dst = FastNode
		}
		if _, err := m.MoveFrame(f, dst, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.Migrations != 255 {
		t.Fatalf("8-bit counter = %d, want saturation at 255", f.Migrations)
	}
}

func TestRemoteAccessCostsMore(t *testing.T) {
	m := NewOptane(OptaneConfig{
		PMEMPages: 1000, L4Pages: 0, // no cache: isolate interconnect effect
		PMEMReadLatency: 300, PMEMWriteLatency: 500, PMEMBandwidth: 8,
		DRAMLatency: 90, DRAMBandwidth: 25, Interconnect: 120, CPUsPerSock: 2,
	})
	m.l4[0], m.l4[1] = nil, nil
	f, _ := m.Alloc(Socket0Node, ClassApp, 0)
	local := m.Access(0, f, PageSize, false, 1)  // cpu 0 on socket 0
	remote := m.Access(2, f, PageSize, false, 2) // cpu 2 on socket 1
	if remote <= local {
		t.Fatalf("remote (%v) not more expensive than local (%v)", remote, local)
	}
}

func TestL4InterceptsLocalPMEM(t *testing.T) {
	m := NewOptane(DefaultOptane(64))
	f, _ := m.Alloc(Socket0Node, ClassApp, 0)
	cold := m.Access(0, f, 64, false, 1)
	warm := m.Access(0, f, 64, false, 2)
	if warm >= cold {
		t.Fatalf("L4 hit (%v) not cheaper than miss (%v)", warm, cold)
	}
	if m.Stats.L4Hits != 1 || m.Stats.L4Misses != 1 {
		t.Fatalf("L4 stats: %+v", m.Stats)
	}
	// Remote access does not hit the local socket's cache.
	remote := m.Access(8, f, 64, false, 3)
	if remote <= warm {
		t.Fatal("remote access unexpectedly cheap")
	}
}

func TestClassPredicates(t *testing.T) {
	if ClassApp.Kernel() {
		t.Fatal("app class marked kernel")
	}
	for _, c := range []Class{ClassCache, ClassSlab, ClassKloc, ClassMeta} {
		if !c.Kernel() {
			t.Fatalf("%v not marked kernel", c)
		}
	}
	names := map[Class]string{ClassFree: "free", ClassApp: "app", ClassCache: "cache", ClassSlab: "slab", ClassKloc: "kloc", ClassMeta: "meta"}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", c, c.String())
		}
	}
}

func TestGBMBHelpers(t *testing.T) {
	if GB(1) != int(1e9)/PageSize {
		t.Fatalf("GB(1) = %d", GB(1))
	}
}

func TestPlatformConstruction(t *testing.T) {
	tt := NewTwoTier(DefaultTwoTier(64))
	if len(tt.Nodes) != 2 || tt.Node(FastNode).Bandwidth <= tt.Node(SlowNode).Bandwidth {
		t.Fatal("two-tier nodes misconfigured")
	}
	if tt.Node(FastNode).Capacity >= tt.Node(SlowNode).Capacity {
		t.Fatal("fast tier should be capacity-limited")
	}
	op := NewOptane(DefaultOptane(64))
	if len(op.Nodes) != 2 || op.Node(Socket1Node).Socket != 1 {
		t.Fatal("optane nodes misconfigured")
	}
	if op.SocketOf(0) != 0 || op.SocketOf(op.NumCPUs()-1) != 1 {
		t.Fatal("cpu-socket map wrong")
	}
	if op.SocketOf(-1) != 0 || op.SocketOf(999) != 0 {
		t.Fatal("out-of-range cpu should default to socket 0")
	}
}

// Property: occupancy accounting stays consistent under random
// alloc/free/migrate sequences.
func TestOccupancyInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		m := testMem()
		var live []*Frame
		for i := 0; i < 2000; i++ {
			switch r.Intn(3) {
			case 0:
				node := NodeID(r.Intn(2))
				if fr, err := m.Alloc(node, Class(r.Intn(4)+1), sim.Time(i)); err == nil {
					live = append(live, fr)
				}
			case 1:
				if len(live) > 0 {
					j := r.Intn(len(live))
					m.Free(live[j])
					live = append(live[:j], live[j+1:]...)
				}
			case 2:
				if len(live) > 0 {
					fr := live[r.Intn(len(live))]
					dst := NodeID(1 - int(fr.Node))
					if m.CanMigrate(fr, dst) {
						m.MoveFrame(fr, dst, 100)
					}
				}
			}
		}
		total := m.Node(FastNode).Used() + m.Node(SlowNode).Used()
		if total != len(live) || len(m.live) != len(live) {
			return false
		}
		perNode := map[NodeID]int{}
		for _, fr := range live {
			perNode[fr.Node]++
		}
		return perNode[FastNode] == m.Node(FastNode).Used() &&
			perNode[SlowNode] == m.Node(SlowNode).Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationInterference(t *testing.T) {
	m := testMem()
	f, _ := m.Alloc(FastNode, ClassApp, 0)
	quiet := m.Access(0, f, PageSize, false, 1)
	m.NoteMigrationLoad(FastNode, 1, sim.Duration(1*sim.Millisecond))
	contended := m.Access(0, f, PageSize, false, 2)
	if contended <= quiet {
		t.Fatalf("access under migration load (%v) not slower than quiet (%v)", contended, quiet)
	}
	// After the horizon passes, cost returns to normal.
	after := m.Access(0, f, PageSize, false, sim.Time(2*sim.Millisecond))
	if after != quiet {
		t.Fatalf("post-migration access %v, want %v", after, quiet)
	}
}

func TestMigratorMarksBothNodesBusy(t *testing.T) {
	m := testMem()
	var frames []*Frame
	for i := 0; i < 20; i++ {
		f, _ := m.Alloc(FastNode, ClassCache, 0)
		frames = append(frames, f)
	}
	mg := &Migrator{Mem: m, FixedPerPage: 1000, Parallelism: 4}
	mg.Migrate(frames, SlowNode, 0)
	if m.Node(FastNode).migBusyUntil == 0 || m.Node(SlowNode).migBusyUntil == 0 {
		t.Fatal("migration did not mark nodes busy")
	}
}
