package policy

import (
	"testing"

	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

func twoTierKernel(t *testing.T, pol kernel.Policy) (*kernel.Kernel, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 512, SlowPages: 4096, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
	return kernel.New(eng, mem, pol), eng
}

func TestCatalogCoversTableFive(t *testing.T) {
	names := append(TwoTierNames(), OptaneNames()...)
	names = append(names, "all-slow", "all-remote")
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		want := n
		if n == "nimble-numa" {
			want = "nimble" // Fig 5a labels it as Nimble
		}
		if p.Name() != want {
			t.Fatalf("policy %q reports name %q", n, p.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestStaticPlacements(t *testing.T) {
	cases := []struct {
		name      string
		firstApp  memsim.NodeID
		firstKern memsim.NodeID
	}{
		{"all-fast", memsim.FastNode, memsim.FastNode},
		{"all-slow", memsim.SlowNode, memsim.SlowNode},
		{"naive", memsim.FastNode, memsim.FastNode},
	}
	for _, c := range cases {
		p, _ := ByName(c.name)
		ctx := &kstate.Ctx{}
		if got := p.PlaceApp(ctx)[0]; got != c.firstApp {
			t.Errorf("%s app order starts at %v", c.name, got)
		}
		if got := p.PlaceKernel(ctx, kobj.Inode, 1)[0]; got != c.firstKern {
			t.Errorf("%s kernel order starts at %v", c.name, got)
		}
	}
	// The ideal bound models the best-case kernel.
	if p, _ := ByName("all-fast"); !p.DriverSockExtract() {
		t.Error("all-fast should use driver extraction")
	}
	if p, _ := ByName("all-slow"); p.DriverSockExtract() {
		t.Error("all-slow should model the stock kernel")
	}
}

func TestNimbleKernelObjectsGoSlow(t *testing.T) {
	n := NewNimble()
	twoTierKernel(t, n)
	ctx := &kstate.Ctx{}
	order := n.PlaceKernel(ctx, kobj.PageCache, 1)
	if order[0] != memsim.SlowNode || len(order) != 1 {
		t.Fatalf("nimble kernel order = %v; prior art allocates kernel objects in slow memory", order)
	}
	if n.PlaceApp(ctx)[0] != memsim.FastNode {
		t.Fatal("nimble app pages should prefer fast memory")
	}
	if n.UseKlocAllocator(kobj.Dentry) {
		t.Fatal("nimble must use the classic slab")
	}
}

func TestNimbleAppTiering(t *testing.T) {
	n := NewNimble()
	k, _ := twoTierKernel(t, n)
	ctx := k.NewCtx(0)
	// Fill fast with app pages, then stop touching most of them.
	frames, err := k.AppAlloc(ctx, 500)
	if err != nil {
		t.Fatal(err)
	}
	hot := frames[:16]
	for now := sim.Time(0); now < sim.Time(100*sim.Millisecond); now += sim.Time(5 * sim.Millisecond) {
		c := &kstate.Ctx{CPU: 0, Now: now}
		for _, f := range hot {
			k.Mem.Access(0, f, 64, false, now)
			n.PageAccessed(c, f)
		}
		n.Tick(now)
	}
	dem, _ := n.Engine()
	if dem == 0 {
		t.Fatal("nimble never demoted cold app pages under pressure")
	}
	// Hot frames should have survived in fast memory.
	for _, f := range hot {
		if f.Node != memsim.FastNode {
			t.Fatalf("hot frame demoted to %v", f.Node)
		}
	}
}

func TestNimblePPTracksKernelPages(t *testing.T) {
	npp := NewNimblePP()
	k, _ := twoTierKernel(t, npp)
	ctx := k.NewCtx(0)
	f, err := k.FS.Create(ctx, "/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Write(ctx, f, 0); err != nil {
		t.Fatal(err)
	}
	// Kernel cache pages land slow-first under nimble++ and are tracked
	// by the scan engine for promotion.
	if !npp.engine.classes[memsim.ClassCache] {
		t.Fatal("nimble++ must track cache pages")
	}
	if NewNimble().kernelPages {
		t.Fatal("plain nimble must not track kernel pages")
	}
}

// TestSpilledFrameLeavesLRUOnFree: the OOM evictor spills frames with
// a bare Migrator, so a tracked fast page reaches the slow node while
// still listed on the fast node's LRU. onFree looks in the slow
// node's lists and misses it; freeing the frame must still take it
// off the fast list, or the entry would outlive the page and link a
// struct memsim recycles into the next allocation.
func TestSpilledFrameLeavesLRUOnFree(t *testing.T) {
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{FastPages: 16, SlowPages: 64, FastBandwidth: 30, CPUs: 2})
	e := newTierEngine(mem, 4, memsim.ClassApp, memsim.ClassCache, memsim.ClassKloc)
	ctx := &kstate.Ctx{}
	f, err := mem.Alloc(memsim.FastNode, memsim.ClassCache, ctx.Now)
	if err != nil {
		t.Fatal(err)
	}
	e.onAlloc(ctx, f)
	spill := &memsim.Migrator{Mem: mem, FixedPerPage: migFixedPerPage, Parallelism: 4}
	if moved, _, _ := spill.Migrate([]*memsim.Frame{f}, memsim.SlowNode, ctx.Now); moved != 1 {
		t.Fatalf("spill moved %d frames, want 1", moved)
	}
	e.onFree(ctx, f)
	mem.Free(f)
	for id, l := range e.lists {
		if a, i := l.Len(); a+i != 0 {
			t.Errorf("node %d LRU still lists %d+%d frames", id, a, i)
		}
	}
	// The recycled struct starts unlinked and can be tracked again.
	g, err := mem.Alloc(memsim.FastNode, memsim.ClassCache, ctx.Now)
	if err != nil {
		t.Fatal(err)
	}
	e.onAlloc(ctx, g)
	if a, i := e.lists[memsim.FastNode].Len(); a != 0 || i != 1 {
		t.Fatalf("fast LRU after re-tracking lists %d+%d frames, want 0+1", a, i)
	}
}

func TestKLOCsLifecycle(t *testing.T) {
	p := NewKLOCs(DefaultKLOCConfig())
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, err := k.FS.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Write(ctx, file, 0); err != nil {
		t.Fatal(err)
	}
	ino := file.Inode.Ino
	kn, ok := p.Reg.Get(ino)
	if !ok {
		t.Fatal("no knode for created file")
	}
	if !kn.Active {
		t.Fatal("knode of open file inactive")
	}
	c, s := kn.Objects()
	if c == 0 || s == 0 {
		t.Fatalf("knode trees empty: cache=%d slab=%d", c, s)
	}
	k.FS.Close(ctx, file)
	if kn.Active {
		t.Fatal("knode still active after close")
	}
	if len(p.demoteQueue) == 0 {
		t.Fatal("close did not queue demotion")
	}
	// Reopen reactivates.
	reopened, err := k.FS.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !kn.Active {
		t.Fatal("reopen did not reactivate the knode")
	}
	// Unlink after close deletes the knode.
	k.FS.Close(ctx, reopened)
	if err := k.FS.Unlink(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Reg.Get(ino); ok {
		t.Fatal("knode survived inode deletion")
	}
}

func TestKLOCsPlacement(t *testing.T) {
	p := NewKLOCs(DefaultKLOCConfig())
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	ino := file.Inode.Ino
	// Active knode: fast-first.
	if order := p.PlaceKernel(ctx, kobj.PageCache, ino); order[0] != memsim.FastNode {
		t.Fatalf("active knode placed %v", order)
	}
	k.FS.Close(ctx, file)
	// Inactive knode: slow-first.
	if order := p.PlaceKernel(ctx, kobj.PageCache, ino); order[0] != memsim.SlowNode {
		t.Fatalf("inactive knode placed %v", order)
	}
	// Unknown owner: fast-first.
	if order := p.PlaceKernel(ctx, kobj.RxBuf, 0); order[0] != memsim.FastNode {
		t.Fatalf("unowned object placed %v", order)
	}
}

func TestKLOCsDemotionMovesCachePagesOnly(t *testing.T) {
	p := NewKLOCs(DefaultKLOCConfig())
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	for i := int64(0); i < 32; i++ {
		if err := k.FS.Write(ctx, file, i); err != nil {
			t.Fatal(err)
		}
	}
	// Create fast-memory pressure so demotion fires.
	if _, err := k.AppAlloc(ctx, k.Mem.Node(memsim.FastNode).Free()-10); err != nil {
		t.Fatal(err)
	}
	kn, _ := p.Reg.Get(file.Inode.Ino)
	k.FS.Close(ctx, file)
	var now sim.Time
	for i := 0; i < 20; i++ {
		now = now.Add(klocTickPeriod)
		p.Tick(now)
	}
	slowCache, fastKloc := 0, 0
	kn.IterCache(func(o *kobj.Object) bool {
		if o.Frame.Node == memsim.SlowNode {
			slowCache++
		}
		return true
	})
	kn.IterSlab(func(o *kobj.Object) bool {
		if o.Frame.Node == memsim.FastNode {
			fastKloc++
		}
		return true
	})
	if slowCache == 0 {
		t.Fatal("inactive knode's cache pages were not demoted")
	}
	if p.KnodeDemotions == 0 {
		t.Fatal("demotion counter not incremented")
	}
}

func TestKLOCsNoMigrationVariant(t *testing.T) {
	cfg := DefaultKLOCConfig()
	cfg.Migration = false
	p := NewKLOCs(cfg)
	if p.Name() != "klocs-nomigration" {
		t.Fatalf("name = %s", p.Name())
	}
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	k.FS.Close(ctx, file)
	if len(p.demoteQueue) != 0 {
		t.Fatal("nomigration variant queued a demotion")
	}
	p.Tick(sim.Time(klocTickPeriod))
	if p.KnodeDemotions != 0 {
		t.Fatal("nomigration variant migrated")
	}
}

func TestKLOCsGroupFilter(t *testing.T) {
	cfg := DefaultKLOCConfig()
	cfg.IncludedGroups = []kobj.Group{kobj.GroupPageCache}
	p := NewKLOCs(cfg)
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	k.FS.Write(ctx, file, 0)
	kn, _ := p.Reg.Get(file.Inode.Ino)
	c, s := kn.Objects()
	if c == 0 {
		t.Fatal("included page-cache objects not tracked")
	}
	// The page-cache group also covers radix-tree nodes (slab-class);
	// everything else (inode, dentry, extent, journal) must be absent.
	onlyRadix := true
	kn.IterSlab(func(o *kobj.Object) bool {
		if o.Type != kobj.RadixNode {
			onlyRadix = false
		}
		return true
	})
	if !onlyRadix {
		t.Fatalf("excluded slab objects tracked (%d slab entries)", s)
	}
	// Excluded types always place fast.
	k.FS.Close(ctx, file)
	if order := p.PlaceKernel(ctx, kobj.Journal, file.Inode.Ino); order[0] != memsim.FastNode {
		t.Fatal("excluded type not pinned to fast memory")
	}
	if p.UseKlocAllocator(kobj.Journal) {
		t.Fatal("excluded type routed to the KLOC allocator")
	}
}

func TestKLOCsRelocatableSlabsAblation(t *testing.T) {
	cfg := DefaultKLOCConfig()
	cfg.RelocatableSlabs = false
	p := NewKLOCs(cfg)
	if p.UseKlocAllocator(kobj.Dentry) {
		t.Fatal("pinned-slabs variant still uses the KLOC allocator")
	}
	full := NewKLOCs(DefaultKLOCConfig())
	if !full.UseKlocAllocator(kobj.Dentry) {
		t.Fatal("full design must use the relocatable allocator")
	}
}

func TestKLOCsMetadataAccounting(t *testing.T) {
	p := NewKLOCs(DefaultKLOCConfig())
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	k.FS.Write(ctx, file, 0)
	if p.MetadataBytes() <= 0 {
		t.Fatal("no metadata accounted")
	}
}

// --- Optane/NUMA policies ---

func optaneKernel(t *testing.T, pol kernel.Policy) (*kernel.Kernel, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	mem := memsim.NewOptane(memsim.DefaultOptane(512))
	return kernel.New(eng, mem, pol), eng
}

func TestAllRemotePinsToOriginalSocket(t *testing.T) {
	p := NewAllRemote()
	k, _ := optaneKernel(t, p)
	ctx := k.NewCtx(0)
	if order := p.PlaceApp(ctx); order[0] != memsim.Socket0Node {
		t.Fatalf("all-remote placed %v", order)
	}
	// The placement is PINNED: it does not follow the task, which is
	// what makes every access remote after the interference move.
	k.SetTaskSocket(1)
	if order := p.PlaceApp(ctx); order[0] != memsim.Socket0Node {
		t.Fatal("all-remote placement followed the task")
	}
	if order := p.PlaceKernel(ctx, kobj.Sock, 1); order[0] != memsim.Socket0Node {
		t.Fatal("kernel placement not pinned")
	}
}

func TestAllLocalTeleports(t *testing.T) {
	p := NewAllLocal()
	k, _ := optaneKernel(t, p)
	ctx := k.NewCtx(0)
	frames, err := k.AppAlloc(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	k.SetTaskSocket(1)
	p.Tick(1000)
	for _, f := range frames {
		if f.Node != memsim.Socket1Node {
			t.Fatalf("oracle left a frame on %v", f.Node)
		}
	}
	if !p.DriverSockExtract() {
		t.Fatal("ideal bound should model the best-case kernel")
	}
}

func TestAutoNUMAMigratesAppOnly(t *testing.T) {
	p := NewAutoNUMA()
	k, _ := optaneKernel(t, p)
	ctx := k.NewCtx(0)
	frames, err := k.AppAlloc(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	file, _ := k.FS.Create(ctx, "/f")
	k.FS.Write(ctx, file, 0)

	k.SetTaskSocket(1)
	// Touch the app pages from the new socket, then let the sampler run.
	now := sim.Time(10 * sim.Millisecond)
	for _, f := range frames {
		k.Mem.Access(k.CPUFor(0), f, 64, false, now)
	}
	p.Tick(now.Add(1000))
	if p.MigratedApp == 0 {
		t.Fatal("autonuma migrated no app pages after the task moved")
	}
	if p.MigratedKernel != 0 {
		t.Fatal("vanilla autonuma migrated kernel pages")
	}
	// Kernel page stayed on socket 0.
	var kernFrame *memsim.Frame
	for _, o := range file.Inode.Objects() {
		if o.Type == kobj.PageCache {
			kernFrame = o.Frame
		}
	}
	if kernFrame == nil || kernFrame.Node != memsim.Socket0Node {
		t.Fatal("kernel page should be stranded on socket 0 under vanilla autonuma")
	}
}

func TestAutoNUMAKlocsMovesKernelObjects(t *testing.T) {
	p := NewAutoNUMAKlocs()
	k, _ := optaneKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	for i := int64(0); i < 8; i++ {
		k.FS.Write(ctx, file, i)
	}
	k.SetTaskSocket(1)
	// Tick well past the young-frame threshold (one scan period).
	p.Tick(sim.Time(200 * sim.Millisecond))
	if p.MigratedKernel == 0 {
		t.Fatal("autonuma+klocs moved no kernel objects")
	}
	moved := 0
	for _, o := range file.Inode.Objects() {
		if o.Frame != nil && o.Frame.Node == memsim.Socket1Node {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no kernel object followed the task")
	}
}

func TestNimbleNUMAIsFaster(t *testing.T) {
	a, n := NewAutoNUMA(), NewNimbleNUMA()
	if n.TickPeriod() >= a.TickPeriod() {
		t.Fatal("nimble's machinery should scan more often than autonuma")
	}
	if n.Name() != "nimble" {
		t.Fatalf("name = %s", n.Name())
	}
}

func TestKLOCsFastMemLimit(t *testing.T) {
	cfg := DefaultKLOCConfig()
	cfg.FastMemLimitPages = 4 // absurdly small cap
	p := NewKLOCs(cfg)
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, _ := k.FS.Create(ctx, "/f")
	for i := int64(0); i < 16; i++ {
		if err := k.FS.Write(ctx, file, i); err != nil {
			t.Fatal(err)
		}
	}
	// Once past the cap, tracked kernel objects must place slow-first.
	if order := p.PlaceKernel(ctx, kobj.PageCache, file.Inode.Ino); order[0] != memsim.SlowNode {
		t.Fatalf("sys_kloc_memsize cap ignored: %v (kernel used: %d)",
			order, k.Mem.KernelUsed(memsim.FastNode))
	}
	p.SetFastMemLimit(0) // lift the cap
	if order := p.PlaceKernel(ctx, kobj.PageCache, file.Inode.Ino); order[0] != memsim.FastNode {
		t.Fatal("lifted cap still routes slow")
	}
}

// TestKLOCsSkipsRecycledObjectOfDeletedKnode: a file closed and then
// unlinked leaves its knode deleted but still on the demote queue, and
// the journal buffers committed after the unlink stay in the knode's
// tree, since no live knode sees their free. Once such a buffer's
// struct is recycled into a live object of another file on the fast
// node, the daemon's walk of the deleted knode must skip it: the entry
// keys the buffer's ID, not the new object's, and moving the frame
// would demote an active file's object.
func TestKLOCsSkipsRecycledObjectOfDeletedKnode(t *testing.T) {
	p := NewKLOCs(DefaultKLOCConfig())
	k, _ := twoTierKernel(t, p)
	ctx := k.NewCtx(0)
	file, err := k.FS.Create(ctx, "/gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Write(ctx, file, 0); err != nil {
		t.Fatal(err)
	}
	kn, _ := p.Reg.Get(file.Inode.Ino)
	k.FS.Close(ctx, file)
	if err := k.FS.Unlink(ctx, "/gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Reg.Get(file.Inode.Ino); ok || len(p.demoteQueue) != 1 || p.demoteQueue[0] != kn {
		t.Fatal("want the unlinked file's knode deleted and still queued for demotion")
	}
	// The knode's tree holds only the pending journal buffers now.
	var buffers []*kobj.Object
	kn.IterSlab(func(o *kobj.Object) bool { buffers = append(buffers, o); return true })
	if len(buffers) == 0 {
		t.Fatal("no journal buffer left in the deleted knode's tree")
	}
	for _, o := range buffers {
		if o.Type != kobj.Journal {
			t.Fatalf("deleted knode still indexes a live %s", o.Type)
		}
	}
	if err := k.FS.SyncJournal(ctx); err != nil {
		t.Fatal(err)
	}
	if _, slab := kn.Objects(); slab != len(buffers) {
		t.Fatalf("deleted knode's tree holds %d entries after the commit, want the %d freed buffers", slab, len(buffers))
	}
	// An active file's objects recycle the buffers' structs.
	live, err := k.FS.Create(ctx, "/live")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Write(ctx, live, 0); err != nil {
		t.Fatal(err)
	}
	var frame *memsim.Frame
	for _, o := range buffers {
		if o.Frame == nil {
			continue // freed and not recycled yet
		}
		f := o.Frame
		if !f.Pinned && f.Node == memsim.FastNode && (f.Class == memsim.ClassCache || f.Class == memsim.ClassKloc) {
			frame = f
			break
		}
	}
	if frame == nil {
		t.Fatal("no buffer struct was recycled into a movable fast-node object")
	}
	// Pressure so demotion fires, then run the daemon.
	if _, err := k.AppAlloc(ctx, k.Mem.Node(memsim.FastNode).Free()-10); err != nil {
		t.Fatal(err)
	}
	now := ctx.Now
	for i := 0; i < 5; i++ {
		now = now.Add(klocTickPeriod)
		p.Tick(now)
	}
	if frame.Node != memsim.FastNode || p.KnodeDemotions != 0 {
		t.Fatalf("the deleted knode's walk demoted a live object's frame (node %d, %d knode demotions)", frame.Node, p.KnodeDemotions)
	}
}
