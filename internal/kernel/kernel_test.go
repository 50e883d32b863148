package kernel

import (
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// testPolicy is a minimal policy recording daemon ticks.
type testPolicy struct {
	kstate.NopHooks
	k      *Kernel
	ticks  int
	period sim.Duration
	cost   sim.Duration
}

func (p *testPolicy) Name() string               { return "test" }
func (p *testPolicy) Attach(k *Kernel)           { p.k = k }
func (p *testPolicy) TickPeriod() sim.Duration   { return p.period }
func (p *testPolicy) Tick(sim.Time) sim.Duration { p.ticks++; return p.cost }

func newTestKernel(period sim.Duration) (*Kernel, *testPolicy, *sim.Engine) {
	eng := sim.NewEngine()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 256, SlowPages: 1024, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
	pol := &testPolicy{period: period}
	k := New(eng, mem, pol)
	return k, pol, eng
}

func TestKernelAssembly(t *testing.T) {
	k, pol, _ := newTestKernel(0)
	if k.FS == nil || k.Net == nil || k.Mem == nil {
		t.Fatal("kernel missing subsystems")
	}
	if pol.k != k {
		t.Fatal("policy not attached")
	}
	if k.Pressure == nil {
		t.Fatal("pressure plane not assembled")
	}
	names := k.Pressure.ShrinkerNames()
	want := []string{"fs.pagecache", "fs.dentry", "net.skbuff"}
	if len(names) != len(want) {
		t.Fatalf("shrinkers = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("shrinkers = %v, want %v", names, want)
		}
	}
	if k.FS.Objs.Pressure != k.Pressure || k.Net.Objs.Pressure != k.Pressure {
		t.Fatal("subsystem reclaim not routed through the pressure plane")
	}
}

func TestAppPageLifecycle(t *testing.T) {
	k, _, _ := newTestKernel(0)
	ctx := k.NewCtx(0)
	frames, err := k.AppAlloc(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 10 || k.AppPages() != 10 {
		t.Fatalf("allocated %d, tracked %d", len(frames), k.AppPages())
	}
	if ctx.Cost <= 0 {
		t.Fatal("allocation was free")
	}
	for _, f := range frames {
		if f.Class != memsim.ClassApp {
			t.Fatalf("class = %v", f.Class)
		}
	}
	k.AppAccess(ctx, frames[0], 512, true)
	if k.Stats.AppAccesses != 1 {
		t.Fatal("access not counted")
	}
	k.AppFree(ctx, frames)
	if k.AppPages() != 0 || k.Mem.Frames() != 0 {
		t.Fatal("free leaked")
	}
	// Lifetime recorded under "app".
	if k.Lifetimes.Class("app") == nil || k.Lifetimes.Class("app").Count() != 10 {
		t.Fatal("app lifetimes not recorded")
	}
	// Double free is a no-op.
	k.AppFree(ctx, frames)
	if k.Stats.AppPagesFreed != 10 {
		t.Fatal("double free counted")
	}
}

func TestDaemonScheduling(t *testing.T) {
	k, pol, eng := newTestKernel(10 * sim.Millisecond)
	k.Start()
	eng.RunUntil(sim.Time(0).Add(55 * sim.Millisecond))
	if pol.ticks != 5 {
		t.Fatalf("ticks = %d, want 5", pol.ticks)
	}
}

func TestDaemonBackoffWhenBusy(t *testing.T) {
	k, pol, eng := newTestKernel(10 * sim.Millisecond)
	pol.cost = 30 * sim.Millisecond // each tick takes 3 periods
	k.Start()
	eng.RunUntil(sim.Time(0).Add(100 * sim.Millisecond))
	// First at 10ms, then every max(period,cost)=30ms: 40, 70, 100.
	if pol.ticks < 3 || pol.ticks > 4 {
		t.Fatalf("busy daemon ticked %d times", pol.ticks)
	}
}

func TestNoDaemonForZeroPeriod(t *testing.T) {
	k, _, eng := newTestKernel(0)
	k.Start()
	if eng.Pending() != 0 {
		t.Fatal("zero-period policy scheduled a daemon")
	}
}

func TestTaskSocketAndCPUMapping(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsim.NewOptane(memsim.DefaultOptane(256))
	pol := &testPolicy{}
	k := New(eng, mem, pol)
	// All thread CPUs start on socket 0.
	for thread := 0; thread < 8; thread++ {
		if s := mem.SocketOf(k.CPUFor(thread)); s != 0 {
			t.Fatalf("thread %d on socket %d before move", thread, s)
		}
	}
	k.SetTaskSocket(1)
	if k.TaskSocket() != 1 {
		t.Fatal("task socket not updated")
	}
	for thread := 0; thread < 8; thread++ {
		if s := mem.SocketOf(k.CPUFor(thread)); s != 1 {
			t.Fatalf("thread %d on socket %d after move", thread, s)
		}
	}
}

func TestObjectLifetimesViaHooks(t *testing.T) {
	k, _, _ := newTestKernel(0)
	ctx := k.NewCtx(0)
	f, err := k.FS.Create(ctx, "/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Write(ctx, f, 0); err != nil {
		t.Fatal(err)
	}
	k.FS.Close(ctx, f)
	later := &kstate.Ctx{CPU: 0, Now: 1000000}
	if err := k.FS.Unlink(later, "/x"); err != nil {
		t.Fatal(err)
	}
	// Slab objects (inode, dentry, extent...) and cache pages died.
	if k.Lifetimes.Class("slab") == nil || k.Lifetimes.Class("slab").Count() == 0 {
		t.Fatal("no slab lifetimes recorded")
	}
	if k.Lifetimes.Class("cache") == nil || k.Lifetimes.Class("cache").Count() == 0 {
		t.Fatal("no cache lifetimes recorded")
	}
}

func TestLifetimeClassMapping(t *testing.T) {
	if lifetimeClass(kobj.Dentry) != "slab" || lifetimeClass(kobj.PageCache) != "cache" {
		t.Fatal("lifetime class mapping wrong")
	}
}

func TestAppAllocReclaimsUnderPressure(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 32, SlowPages: 32, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	k := New(eng, mem, &testPolicy{})
	ctx := k.NewCtx(0)
	// Fill memory with clean page cache.
	f, err := k.FS.Create(ctx, "/fill")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); ; i++ {
		if err := k.FS.Write(ctx, f, i); err != nil {
			break
		}
	}
	k.FS.Fsync(ctx, f) // clean pages: reclaimable
	// App allocation should succeed by reclaiming cache.
	if _, err := k.AppAlloc(ctx, 8); err != nil {
		t.Fatalf("app alloc did not reclaim: %v", err)
	}
}

// TestAppAllocReclaimTargetBeyondOldBatch is the regression test for
// the old slow path, which reclaimed a hardcoded 64 pages exactly once
// and failed any allocation needing more. The bounded retry loop with
// a watermark-derived target must satisfy a demand several batches
// deep.
func TestAppAllocReclaimTargetBeyondOldBatch(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 256, SlowPages: 256, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	k := New(eng, mem, &testPolicy{})
	ctx := k.NewCtx(0)
	// Fill all 512 pages with clean, reclaimable page cache.
	f, err := k.FS.Create(ctx, "/fill")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); ; i++ {
		if err := k.FS.Write(ctx, f, i); err != nil {
			break
		}
	}
	k.FS.Fsync(ctx, f)
	k.FS.Close(ctx, f)
	// 200 pages needs >3 of the old 64-page one-shot batches.
	frames, err := k.AppAlloc(ctx, 200)
	if err != nil {
		t.Fatalf("alloc needing multiple reclaim batches failed: %v", err)
	}
	if len(frames) != 200 {
		t.Fatalf("got %d frames", len(frames))
	}
	if k.Pressure.Stats.DirectReclaims == 0 {
		t.Fatal("allocation succeeded without entering direct reclaim")
	}
}

// TestAppAllocStopsOnNoProgress pins the other half of the retry-loop
// contract: when nothing is reclaimable, the loop must give up after
// one fruitless round instead of burning its whole retry budget.
func TestAppAllocStopsOnNoProgress(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 64, SlowPages: 64, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	k := New(eng, mem, &testPolicy{})
	ctx := k.NewCtx(0)
	// Fill with app pages — not reclaimable by any shrinker.
	if _, err := k.AppAlloc(ctx, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AppAlloc(ctx, 1); err != memsim.ErrNoMemory {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if got := k.Pressure.Stats.DirectReclaims; got != 1 {
		t.Fatalf("direct reclaims = %d, want 1 (stop on no progress)", got)
	}
}

func TestAppAllocHuge(t *testing.T) {
	k, _, _ := newTestKernel(0)
	ctx := k.NewCtx(0)
	frames, err := k.AppAllocHuge(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, f := range frames {
		if f.Order != 9 || f.Pages() != 512 {
			t.Fatalf("not a 2MB compound page: order=%d", f.Order)
		}
	}
	// Occupancy counts base pages, not frames.
	fast := k.Mem.Node(memsim.FastNode)
	slow := k.Mem.Node(memsim.SlowNode)
	if fast.Used()+slow.Used() != 1024 {
		t.Fatalf("occupancy = %d, want 1024 base pages", fast.Used()+slow.Used())
	}
	k.AppFree(ctx, frames)
	if fast.Used()+slow.Used() != 0 {
		t.Fatal("huge free leaked occupancy")
	}
}

func TestAppAllocHugeExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 100, SlowPages: 100, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
	k := New(eng, mem, &testPolicy{})
	ctx := k.NewCtx(0)
	if _, err := k.AppAllocHuge(ctx, 1); err == nil {
		t.Fatal("512-page compound alloc fit in a 100-page node")
	}
}
