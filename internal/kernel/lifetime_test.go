package kernel_test

import (
	"fmt"
	"testing"

	"kloc/internal/harness"
	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/metrics"
	"kloc/internal/policy"
	"kloc/internal/sim"
)

// refAppBit keys app pages apart from kernel objects in the reference
// born map, as the kernel's sanitizer keyspace does.
const refAppBit = uint64(1) << 63

// bornMapPolicy wraps a policy and keeps the ID-keyed born map the
// lifetime tracker used before objects carried their own birth stamps:
// Born on ObjectCreated and on an app page's PageAllocated, Died on
// ObjectFreed and on an app page's PageFreed, with unknown IDs ignored.
// It forwards every hook, so the wrapped run is unchanged; it also
// records every death it had no live birth for.
type bornMapPolicy struct {
	kernel.Policy
	k    *kernel.Kernel
	born map[uint64]sim.Time
	dist map[metrics.LifetimeClass]*metrics.Distribution
	dead map[uint64]bool
	bad  []string
}

func newBornMapPolicy(inner kernel.Policy) *bornMapPolicy {
	return &bornMapPolicy{
		Policy: inner,
		born:   make(map[uint64]sim.Time),
		dist:   make(map[metrics.LifetimeClass]*metrics.Distribution),
		dead:   make(map[uint64]bool),
	}
}

func (p *bornMapPolicy) Attach(k *kernel.Kernel) {
	p.k = k
	p.Policy.Attach(k)
}

// OOMVictimFrames keeps the inner policy's OOM victim choice; an empty
// answer sends the kernel to its filesystem fallback, as a policy
// without the method does.
func (p *bornMapPolicy) OOMVictimFrames(node memsim.NodeID, now sim.Time) []*memsim.Frame {
	if ch, ok := p.Policy.(kernel.OOMVictimChooser); ok {
		return ch.OOMVictimFrames(node, now)
	}
	return nil
}

func (p *bornMapPolicy) bornAt(id uint64, t sim.Time) {
	if _, ok := p.born[id]; ok {
		p.bad = append(p.bad, fmt.Sprintf("id %#x born twice", id))
	}
	p.born[id] = t
}

func (p *bornMapPolicy) diedAt(id uint64, class metrics.LifetimeClass, t sim.Time) {
	if p.dead[id] {
		p.bad = append(p.bad, fmt.Sprintf("%s id %#x died twice", lifetimeNames[class], id))
	}
	p.dead[id] = true
	b, ok := p.born[id]
	if !ok {
		p.bad = append(p.bad, fmt.Sprintf("%s id %#x died without a live birth", lifetimeNames[class], id))
		return
	}
	delete(p.born, id)
	d := p.dist[class]
	if d == nil {
		d = &metrics.Distribution{}
		p.dist[class] = d
	}
	d.Observe(float64(t.Sub(b)))
}

func (p *bornMapPolicy) ObjectCreated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	p.bornAt(uint64(o.ID), ctx.Now)
	p.Policy.ObjectCreated(ctx, ino, o)
}

func (p *bornMapPolicy) ObjectFreed(ctx *kstate.Ctx, o *kobj.Object) {
	class := metrics.LifetimeCache
	if o.Type.Info().Alloc == kobj.AllocSlab {
		class = metrics.LifetimeSlab
	}
	p.diedAt(uint64(o.ID), class, ctx.Now)
	p.Policy.ObjectFreed(ctx, o)
}

func (p *bornMapPolicy) PageAllocated(ctx *kstate.Ctx, f *memsim.Frame) {
	if f.Class == memsim.ClassApp {
		p.bornAt(refAppBit|uint64(f.ID), ctx.Now)
	}
	p.Policy.PageAllocated(ctx, f)
}

func (p *bornMapPolicy) PageFreed(ctx *kstate.Ctx, f *memsim.Frame) {
	if f.Class == memsim.ClassApp {
		p.diedAt(refAppBit|uint64(f.ID), metrics.LifetimeApp, ctx.Now)
	}
	p.Policy.PageFreed(ctx, f)
}

// lifetimeNames names the tracker's classes in test messages.
var lifetimeNames = [...]string{
	metrics.LifetimeApp:   "app",
	metrics.LifetimeSlab:  "slab",
	metrics.LifetimeCache: "cache",
}

// sameLifetimes requires the kernel's tracker, which reads each
// object's own birth stamp, to report exactly the reference's
// per-class death count and mean lifetime, and no object or app page
// to die twice or without a birth: the born map ignored such deaths,
// the stamp-based path would count them.
func sameLifetimes(t *testing.T, ref *bornMapPolicy, want ...metrics.LifetimeClass) {
	t.Helper()
	if n := len(ref.bad); n > 0 {
		t.Errorf("%d deaths without exactly one birth, first %v", n, ref.bad[:min(n, 5)])
	}
	for _, class := range want {
		if ref.dist[class] == nil || ref.dist[class].Count() == 0 {
			t.Fatalf("no %s deaths: the run does not exercise the tracker", lifetimeNames[class])
		}
	}
	for class, name := range lifetimeNames {
		g, w := ref.k.Lifetimes.Class(metrics.LifetimeClass(class)), ref.dist[metrics.LifetimeClass(class)]
		if w == nil {
			w = &metrics.Distribution{}
		}
		t.Logf("%s: %d deaths", name, g.Deaths)
		if g.Deaths != w.Count() {
			t.Errorf("%s count = %d, reference %d", name, g.Deaths, w.Count())
		}
		if want := sim.Duration(w.Mean()); g.Mean() != want {
			t.Errorf("%s mean = %v, reference %v", name, g.Mean(), want)
		}
	}
}

// TestLifetimesMatchBornMap runs quick rocksdb and redis executions
// behind bornMapPolicy and compares the kernel's lifetimes with the
// reference's. No workload unmaps application pages, so an app-page
// churn with repeated AppFree calls covers the app class.
func TestLifetimesMatchBornMap(t *testing.T) {
	for _, c := range []struct{ workload, policy string }{
		{"rocksdb", "klocs"},
		{"redis", "nimble++"},
	} {
		t.Run(c.workload, func(t *testing.T) {
			inner, err := policy.ByName(c.policy)
			if err != nil {
				t.Fatal(err)
			}
			ref := newBornMapPolicy(inner)
			o := harness.QuickOptions()
			if _, err := harness.Run(harness.RunConfig{Policy: ref, Workload: c.workload,
				ScaleDiv: o.ScaleDiv, Duration: o.Duration, Seed: o.Seed}); err != nil {
				t.Fatal(err)
			}
			sameLifetimes(t, ref, metrics.LifetimeSlab, metrics.LifetimeCache)
		})
	}
	t.Run("app-churn", func(t *testing.T) {
		inner, err := policy.ByName("nimble")
		if err != nil {
			t.Fatal(err)
		}
		ref := newBornMapPolicy(inner)
		eng := sim.NewEngine()
		k := kernel.New(eng, memsim.NewTwoTier(memsim.TwoTierConfig{
			FastPages: 256, SlowPages: 1024, FastBandwidth: 30, CPUs: 2,
		}), ref)
		rng := sim.NewRNG(42)
		ctx := k.NewCtx(0)
		mapped, err := k.AppAllocHuge(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		k.PutCtx(ctx)
		for step := 0; step < 600; step++ {
			eng.RunUntil(eng.Now().Add(sim.Duration(1 + rng.Intn(5000))))
			ctx := k.NewCtx(0)
			switch {
			case rng.Intn(2) == 0:
				frames, err := k.AppAlloc(ctx, 1+rng.Intn(4))
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				mapped = append(mapped, frames...)
			case len(mapped) > 0:
				// Unmap a random run, then hand its first frame back a
				// second time: the repeat must not record a death.
				i := rng.Intn(len(mapped))
				j := i + 1 + rng.Intn(min(3, len(mapped)-i))
				k.AppFree(ctx, mapped[i:j])
				k.AppFree(ctx, mapped[i:i+1])
				mapped = append(mapped[:i], mapped[j:]...)
			}
			if len(mapped) > 0 {
				k.AppAccess(ctx, mapped[rng.Intn(len(mapped))], 0, false)
			}
			k.PutCtx(ctx)
		}
		n := 0
		k.Mem.EachLive(func(f *memsim.Frame) {
			if f.Mapped {
				n++
			}
		})
		if n != len(mapped) {
			t.Fatalf("%d frames mapped as app pages, want %d", n, len(mapped))
		}
		sameLifetimes(t, ref, metrics.LifetimeApp)
	})
}
