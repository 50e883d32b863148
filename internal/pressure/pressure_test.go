package pressure

import (
	"testing"

	"kloc/internal/fault"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

func newTestMem(fast, slow int) *memsim.Memory {
	return memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: fast, SlowPages: slow,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 1,
	})
}

// frameShrinker owns real frames on the memory and frees up to n per
// Scan, so the plane's free-page-delta progress accounting is
// exercised against actual allocator state.
type frameShrinker struct {
	name   string
	mem    *memsim.Memory
	frames []*memsim.Frame
	// perScan caps pages freed per Scan call (0 = honor n).
	perScan int
	scans   int
}

func (s *frameShrinker) fill(t *testing.T, node memsim.NodeID, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		f, err := s.mem.Alloc(node, memsim.ClassCache, 0)
		if err != nil {
			t.Fatalf("fill %s: %v", s.name, err)
		}
		s.frames = append(s.frames, f)
	}
}

func (s *frameShrinker) Name() string { return s.name }
func (s *frameShrinker) Count() int   { return len(s.frames) }

func (s *frameShrinker) Scan(ctx *kstate.Ctx, n int) int {
	s.scans++
	if s.perScan > 0 && n > s.perScan {
		n = s.perScan
	}
	freed := 0
	for freed < n && len(s.frames) > 0 {
		f := s.frames[len(s.frames)-1]
		s.frames = s.frames[:len(s.frames)-1]
		s.mem.Free(f)
		freed++
	}
	return freed
}

// dryShrinker claims objects but never frees anything — the
// no-progress case.
type dryShrinker struct{ scans int }

func (s *dryShrinker) Name() string                  { return "dry" }
func (s *dryShrinker) Count() int                    { return 1 << 20 }
func (s *dryShrinker) Scan(_ *kstate.Ctx, _ int) int { s.scans++; return 0 }

func TestNilPlaneNoOps(t *testing.T) {
	var p *Plane
	p.Register(&dryShrinker{})
	p.Configure(Config{})
	if got := p.DirectReclaim(&kstate.Ctx{}); got != 0 {
		t.Fatalf("nil plane reclaimed %d", got)
	}
	if p.ShrinkerNames() != nil || p.ShrinkerStats() != nil {
		t.Fatal("nil plane reported shrinkers")
	}
	if p.KswapdEnabled() {
		t.Fatal("nil plane has kswapd")
	}
}

func TestConfigureDerivesWatermarks(t *testing.T) {
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	p.Configure(Config{})
	wm := mem.Node(memsim.FastNode).NodeWatermarks()
	want := memsim.DeriveWatermarks(256)
	if wm != want {
		t.Fatalf("derived watermarks = %+v, want %+v", wm, want)
	}
	// Explicit watermarks are installed verbatim.
	p.Configure(Config{Watermarks: memsim.Watermarks{Min: 10, Low: 20, High: 30}})
	if wm := mem.Node(memsim.FastNode).NodeWatermarks(); wm.Min != 10 || wm.High != 30 {
		t.Fatalf("explicit watermarks not installed: %+v", wm)
	}
}

func TestDirectReclaimFreesTowardTarget(t *testing.T) {
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	sh := &frameShrinker{name: "cache", mem: mem}
	sh.fill(t, memsim.FastNode, 200)
	p.Register(sh)

	freed := p.DirectReclaim(&kstate.Ctx{})
	if freed < minReclaimTarget {
		t.Fatalf("freed %d, want at least the %d-page floor", freed, minReclaimTarget)
	}
	if p.Stats.DirectReclaims != 1 || p.Stats.DirectReclaimPages != uint64(freed) {
		t.Fatalf("stats = %+v", p.Stats)
	}
	st := p.ShrinkerStats()
	if len(st) != 1 || st[0].FreedPages != uint64(freed) || st[0].FreedObjects == 0 {
		t.Fatalf("shrinker stats = %+v", st)
	}
}

func TestDirectReclaimBoundedRetries(t *testing.T) {
	mem := newTestMem(1024, 0)
	p := NewPlane(mem, memsim.FastNode)
	// 2 pages per round against a 64-page floor: the retry budget, not
	// the target, must stop the loop.
	sh := &frameShrinker{name: "slow", mem: mem, perScan: 2}
	sh.fill(t, memsim.FastNode, 512)
	p.Register(sh)
	p.Configure(Config{})

	freed := p.DirectReclaim(&kstate.Ctx{})
	if freed != 2*directRetries {
		t.Fatalf("freed %d pages, want %d rounds x 2", freed, directRetries)
	}
	if sh.scans != directRetries {
		t.Fatalf("scans = %d, want the retry budget", sh.scans)
	}
}

func TestDirectReclaimStopsOnNoProgress(t *testing.T) {
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	dry := &dryShrinker{}
	p.Register(dry)

	if freed := p.DirectReclaim(&kstate.Ctx{}); freed != 0 {
		t.Fatalf("dry reclaim freed %d", freed)
	}
	if dry.scans != 1 {
		t.Fatalf("scans = %d; no-progress must stop after one round", dry.scans)
	}
}

// reentrantShrinker calls back into DirectReclaim from Scan, as a
// writeback path that allocates might.
type reentrantShrinker struct {
	p     *Plane
	inner int
}

func (s *reentrantShrinker) Name() string { return "reentrant" }
func (s *reentrantShrinker) Count() int   { return 1 }

func (s *reentrantShrinker) Scan(ctx *kstate.Ctx, _ int) int {
	s.inner = s.p.DirectReclaim(ctx)
	return 0
}

func TestDirectReclaimReentrancyGuard(t *testing.T) {
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	sh := &reentrantShrinker{p: p}
	p.Register(sh)

	p.DirectReclaim(&kstate.Ctx{})
	if sh.inner != 0 {
		t.Fatalf("recursive reclaim returned %d, want 0", sh.inner)
	}
	if p.Stats.DirectReclaims != 1 {
		t.Fatalf("recursive entry counted: %+v", p.Stats)
	}
	if mem.InAtomic() {
		t.Fatal("atomic context leaked after reclaim")
	}
}

func TestDirectReclaimRunsInAtomicContext(t *testing.T) {
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	saw := false
	p.Register(&funcShrinker{count: 1, scan: func(*kstate.Ctx, int) int {
		saw = mem.InAtomic()
		return 0
	}})
	p.DirectReclaim(&kstate.Ctx{})
	if !saw {
		t.Fatal("shrinkers did not run under the PF_MEMALLOC reserve")
	}
}

type funcShrinker struct {
	count int
	scan  func(*kstate.Ctx, int) int
}

func (s *funcShrinker) Name() string                  { return "func" }
func (s *funcShrinker) Count() int                    { return s.count }
func (s *funcShrinker) Scan(c *kstate.Ctx, n int) int { return s.scan(c, n) }

func TestDirectReclaimFaultAborts(t *testing.T) {
	mem := newTestMem(256, 256)
	mem.Fault = fault.NewPlane(fault.Config{
		Seed:  1,
		Rules: map[fault.Point]fault.Rule{fault.Reclaim: {Prob: 1}},
	})
	p := NewPlane(mem, memsim.FastNode)
	sh := &frameShrinker{name: "cache", mem: mem}
	sh.fill(t, memsim.FastNode, 100)
	p.Register(sh)

	if freed := p.DirectReclaim(&kstate.Ctx{}); freed != 0 {
		t.Fatalf("faulted reclaim freed %d", freed)
	}
	if p.Stats.ReclaimFaults != 1 || sh.scans != 0 {
		t.Fatalf("fault did not abort before scanning: %+v scans=%d", p.Stats, sh.scans)
	}
}

// fakeOOM records eviction requests and frees pages to fake progress.
type fakeOOM struct {
	mem    *memsim.Memory
	frames []*memsim.Frame
	calls  int
}

func (o *fakeOOM) EvictWorst(_ *kstate.Ctx, node memsim.NodeID) int {
	o.calls++
	freed := 0
	for _, f := range o.frames {
		o.mem.Free(f)
		freed += f.Pages()
	}
	o.frames = nil
	return freed
}

func TestDirectReclaimOOMLastResort(t *testing.T) {
	mem := newTestMem(64, 64)
	p := NewPlane(mem, memsim.FastNode)
	p.Configure(Config{}) // derived: Min=4 for a 64-page node
	dry := &dryShrinker{}
	p.Register(dry)

	// Drain the node below Min so the OOM path is eligible.
	var frames []*memsim.Frame
	exit := mem.EnterAtomic() // dip past the reserve gate
	for i := 0; i < 62; i++ {
		f, err := mem.Alloc(memsim.FastNode, memsim.ClassApp, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	exit()
	oom := &fakeOOM{mem: mem, frames: frames[:8]}
	p.OOM = oom

	freed := p.DirectReclaim(&kstate.Ctx{})
	if oom.calls != 1 || freed != 8 {
		t.Fatalf("oom calls=%d freed=%d, want 1/8", oom.calls, freed)
	}
	if p.Stats.OOMEvictions != 1 || p.Stats.OOMPagesSpilled != 8 {
		t.Fatalf("stats = %+v", p.Stats)
	}

	// Above Min, a dry reclaim must NOT invoke the OOM killer.
	oom.calls = 0
	p.DirectReclaim(&kstate.Ctx{})
	if oom.calls != 0 {
		t.Fatal("OOM invoked while above the Min watermark")
	}
}

func TestKswapdReclaimsInBackground(t *testing.T) {
	eng := sim.NewEngine()
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	sh := &frameShrinker{name: "cache", mem: mem}
	// Node at 16 free pages — below Low (5 for cap 256? derived min=4,
	// low=5, high=6) only if we use tighter marks; install explicit
	// ones so the scenario is unambiguous.
	sh.fill(t, memsim.FastNode, 240)
	p.Register(sh)
	p.Configure(Config{
		Watermarks:   memsim.Watermarks{Min: 8, Low: 32, High: 64},
		KswapdPeriod: sim.Millisecond,
	})
	if !p.KswapdEnabled() {
		t.Fatal("kswapd not enabled")
	}
	p.StartKswapd(eng)
	eng.RunUntil(sim.Time(0).Add(10 * sim.Millisecond))

	free := mem.Node(memsim.FastNode).Free()
	if free < 64 {
		t.Fatalf("kswapd left free=%d, want >= High=64", free)
	}
	if p.Stats.KswapdWakeups == 0 || p.Stats.KswapdPages == 0 {
		t.Fatalf("kswapd stats empty: %+v", p.Stats)
	}
	// Once above Low, further ticks are no-ops.
	wakes := p.Stats.KswapdWakeups
	eng.RunUntil(sim.Time(0).Add(20 * sim.Millisecond))
	if p.Stats.KswapdWakeups != wakes {
		t.Fatalf("kswapd kept waking above Low: %d -> %d", wakes, p.Stats.KswapdWakeups)
	}
}

func TestKswapdDeterminism(t *testing.T) {
	run := func() (Stats, int) {
		eng := sim.NewEngine()
		mem := newTestMem(256, 256)
		p := NewPlane(mem, memsim.FastNode)
		sh := &frameShrinker{name: "cache", mem: mem}
		sh.fill(t, memsim.FastNode, 250)
		p.Register(sh)
		p.Configure(Config{KswapdPeriod: sim.Millisecond})
		p.StartKswapd(eng)
		eng.RunUntil(sim.Time(0).Add(5 * sim.Millisecond))
		return p.Stats, mem.Node(memsim.FastNode).Free()
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 || f1 != f2 {
		t.Fatalf("kswapd nondeterministic: %+v/%d vs %+v/%d", s1, f1, s2, f2)
	}
}

func TestShrinkerRegistrationOrderIsScanOrder(t *testing.T) {
	mem := newTestMem(256, 256)
	p := NewPlane(mem, memsim.FastNode)
	var order []string
	mk := func(name string) Shrinker {
		return &funcShrinker{count: 1, scan: func(*kstate.Ctx, int) int {
			order = append(order, name)
			return 0
		}}
	}
	p.Register(mk("a"))
	p.Register(mk("b"))
	p.Register(mk("c"))
	p.DirectReclaim(&kstate.Ctx{})
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("scan order = %v", order)
	}
}
