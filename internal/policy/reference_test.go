package policy

import (
	"testing"

	"kloc/internal/kloc"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// TestAutoNUMASlotsMatchReference drives AutoNUMA's tracked set through
// a seeded mix of app-page allocations and frees (freed Frame structs
// are recycled into later pages), page-cache writes whose frames the
// set must ignore, and repeated frees, beside a reference that keeps
// the FrameID → index map the set used to keep. After every step the
// set holds the reference's frames in the reference's order, and every
// tracked frame's Slot points at its own entry.
func TestAutoNUMASlotsMatchReference(t *testing.T) {
	p := NewAutoNUMA()
	k, _ := optaneKernel(t, p)
	ctx := k.NewCtx(0)
	file, err := k.FS.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	var ref []*memsim.Frame
	index := map[memsim.FrameID]int{}
	var held []*memsim.Frame
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(held) == 0:
			frames, err := k.AppAlloc(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			f := frames[0]
			index[f.ID] = len(ref)
			ref = append(ref, f)
			held = append(held, f)
		case op < 9:
			i := rng.Intn(len(held))
			f := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			k.AppFree(ctx, []*memsim.Frame{f})
			j := index[f.ID]
			last := len(ref) - 1
			ref[j] = ref[last]
			index[ref[j].ID] = j
			ref = ref[:last]
			delete(index, f.ID)
			p.PageFreed(ctx, f) // a repeated free is a no-op
		default:
			if err := k.FS.Write(ctx, file, int64(rng.Intn(64))); err != nil {
				t.Fatal(err)
			}
		}
		if len(p.frames) != len(ref) {
			t.Fatalf("step %d: %d tracked frames, reference %d", step, len(p.frames), len(ref))
		}
		for i, f := range p.frames {
			if f != ref[i] {
				t.Fatalf("step %d: tracked frame %d is %d, reference %d", step, i, f.ID, ref[i].ID)
			}
			if f.Slot != int32(i+1) {
				t.Fatalf("step %d: frame %d at index %d has Slot %d", step, f.ID, i, f.Slot)
			}
		}
	}
	if k.Mem.PerfCounters().FramesReused == 0 {
		t.Fatal("no Frame struct was recycled")
	}
}

// TestKLOCsDemotionPassIsAllocFree: once the policy's scratch slice has
// grown, a demotion pass over a cold knode (its walk, the victim
// collection and the batched migration) allocates nothing. Each pass
// first moves the knode's frames back to fast memory.
func TestKLOCsDemotionPassIsAllocFree(t *testing.T) {
	p := NewKLOCs(DefaultKLOCConfig())
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, err := k.FS.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 32; i++ {
		if err := k.FS.Write(ctx, file, i); err != nil {
			t.Fatal(err)
		}
	}
	kn, _ := p.Reg.Get(file.Inode.Ino)
	k.FS.Close(ctx, file)
	if _, err := k.AppAlloc(ctx, k.Mem.Node(memsim.FastNode).Free()-10); err != nil {
		t.Fatal(err)
	}
	victims := append([]*memsim.Frame(nil), p.collect(kn, demotable)...)
	if len(victims) < 32 {
		t.Fatalf("the closed file's knode has %d demotable frames, want its 32 pages at least", len(victims))
	}
	queue := make([]*kloc.Knode, 1)
	now := ctx.Now
	pass := func() {
		for _, f := range victims {
			if f.Node != memsim.FastNode {
				if _, err := k.Mem.MoveFrame(f, memsim.FastNode, 0); err != nil {
					t.Fatal(err)
				}
			}
			f.Migrations = 0
		}
		queue[0] = kn
		p.demoteQueue = queue
		now = now.Add(klocTickPeriod)
		p.processDemotions(now)
	}
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("a demotion pass allocated %.2f objects", avg)
	}
	for _, f := range victims {
		if f.Node != memsim.SlowNode {
			t.Fatalf("frame %d was not demoted", f.ID)
		}
	}
}
