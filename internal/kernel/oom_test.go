package kernel_test

import (
	"testing"

	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
)

// oomKernel is a small two-tier kernel with one closed file of 16
// page-cache pages, the first 6 of them dirty, written while the fast
// tier had room.
func oomKernel(t *testing.T, pol kernel.Policy) (*kernel.Kernel, *fs.File) {
	t.Helper()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 128, SlowPages: 256, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
	k := kernel.New(sim.NewEngine(), mem, pol)
	ctx := k.NewCtx(0)
	f, err := k.FS.Create(ctx, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 16; i++ {
		if err := k.FS.Write(ctx, f, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.FS.Fsync(ctx, f); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := k.FS.Write(ctx, f, i); err != nil {
			t.Fatal(err)
		}
	}
	k.FS.Close(ctx, f)
	return k, f
}

// fillTiers allocates application frames until no node has a free
// page, so an OOM spill has nowhere to move anything.
func fillTiers(t *testing.T, mem *memsim.Memory) []*memsim.Frame {
	t.Helper()
	var out []*memsim.Frame
	for _, n := range mem.Nodes {
		for n.Free() > 0 {
			f, err := mem.Alloc(n.ID, memsim.ClassApp, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

// frameState is what an eviction may change about a frame.
type frameState struct {
	class memsim.Class
	node  memsim.NodeID
}

// checkEvictWorst runs the kernel's OOM evictor on the fast node with
// both tiers full. It requires that every victim page-cache frame is
// evicted (a dirty one written back first), that every other frame of
// the file, and every application frame, keeps its class and node, and
// that the return value is the node's free-page growth.
func checkEvictWorst(t *testing.T, k *kernel.Kernel, file *fs.File, victims []*memsim.Frame) {
	t.Helper()
	cached := map[*memsim.Frame]bool{}
	for _, o := range file.Inode.Objects() {
		if o.Type == kobj.PageCache {
			cached[o.Frame] = true
		}
	}
	evict := 0
	for _, v := range victims {
		if v.Node != memsim.FastNode {
			t.Fatalf("victim frame %d on node %d, not the pressured fast node", v.ID, v.Node)
		}
		if cached[v] {
			evict++
		}
	}
	if evict != 16 {
		t.Fatalf("%d of %d victim frames back the file's 16 cached pages", evict, len(victims))
	}
	stay := map[*memsim.Frame]frameState{}
	for _, f := range fillTiers(t, k.Mem) {
		stay[f] = frameState{f.Class, f.Node}
	}
	for _, o := range file.Inode.Objects() {
		if !cached[o.Frame] {
			stay[o.Frame] = frameState{o.Frame.Class, o.Frame.Node}
		}
	}

	before := k.Mem.Node(memsim.FastNode).Free()
	wb := k.FS.Stats.WritebackPages
	ctx := &kstate.Ctx{CPU: 0, Now: sim.Time(sim.Millisecond)}
	got := k.Pressure.OOM.EvictWorst(ctx, memsim.FastNode)

	if grew := k.Mem.Node(memsim.FastNode).Free() - before; got != grew || got != evict {
		t.Fatalf("EvictWorst returned %d, the fast node gained %d free pages, want %d", got, grew, evict)
	}
	if n := k.FS.Stats.WritebackPages - wb; n != 6 {
		t.Fatalf("%d pages written back, want the 6 dirty ones", n)
	}
	if ctx.Cost <= 0 {
		t.Fatal("evicting dirty pages charged no writeback")
	}
	for _, o := range file.Inode.Objects() {
		if o.Type == kobj.PageCache {
			t.Fatalf("cached page %d survived eviction", o.ID)
		}
	}
	for f := range cached {
		if f.Class != memsim.ClassFree {
			t.Fatalf("evicted page's frame %d is still %v", f.ID, f.Class)
		}
	}
	for f, s := range stay {
		if (frameState{f.Class, f.Node}) != s {
			t.Fatalf("frame %d went from %v on node %d to %v on node %d", f.ID, s.class, s.node, f.Class, f.Node)
		}
	}
}

// TestOOMEvictorFSVictim: a policy that nominates no victim leaves the
// choice to the filesystem, whose coldest file loses its pages while
// its other objects stay on their pinned slab frames.
func TestOOMEvictorFSVictim(t *testing.T) {
	pol, err := policy.ByName("naive")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pol.(kernel.OOMVictimChooser); ok {
		t.Fatal("naive nominates OOM victims; the test needs a policy that does not")
	}
	k, file := oomKernel(t, pol)
	pinned := 0
	for _, o := range file.Inode.Objects() {
		if o.Frame.Pinned {
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatal("the file has no object on a pinned frame; the test needs one")
	}
	checkEvictWorst(t, k, file, k.FS.OOMVictimFrames(memsim.FastNode, sim.Time(sim.Millisecond)))
}

// TestOOMEvictorKLOCsVictim: KLOCs nominates the file's knode, whose
// movable frames include arena frames of its other kernel objects;
// those are not cached pages, so they stay when no tier has room.
func TestOOMEvictorKLOCsVictim(t *testing.T) {
	pol := policy.NewKLOCs(policy.DefaultKLOCConfig())
	k, file := oomKernel(t, pol)
	victims := pol.OOMVictimFrames(memsim.FastNode, sim.Time(sim.Millisecond))
	others := 0
	for _, v := range victims {
		if v.Class != memsim.ClassCache {
			others++
		}
	}
	if others == 0 {
		t.Fatalf("the KLOCs victim's %d frames are all page cache; the test needs others", len(victims))
	}
	checkEvictWorst(t, k, file, victims)
}
