package kernel_test

import (
	"testing"

	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
)

// refCPUFor is CPUFor as it was before the kernel kept a per-socket
// table: it builds the socket's CPU list on every call. It is kept only
// as TestCPUForMatchesReference's reference.
func refCPUFor(mem *memsim.Memory, socket, thread int) int {
	var local []int
	for cpu, sock := range mem.CPUSocket {
		if sock == socket {
			local = append(local, cpu)
		}
	}
	if len(local) == 0 {
		return thread % mem.NumCPUs()
	}
	return local[thread%len(local)]
}

// TestCPUForMatchesReference checks the table-driven CPUFor against the
// list-building reference on both default platforms (at the quick
// experiments' scale), for every thread in [0, 2·NumCPUs) on every
// socket the platform has plus one with no CPUs (the fallback), moving
// the task up through the sockets and back down.
func TestCPUForMatchesReference(t *testing.T) {
	for _, p := range []struct {
		name string
		mem  *memsim.Memory
	}{
		{"two-tier", memsim.NewTwoTier(memsim.DefaultTwoTier(64))},
		{"optane", memsim.NewOptane(memsim.DefaultOptane(64))},
	} {
		k := kernel.New(sim.NewEngine(), p.mem, policy.Naive())
		sockets := 0
		for _, s := range p.mem.CPUSocket {
			sockets = max(sockets, s+1)
		}
		var moves []int
		for s := 0; s <= sockets; s++ {
			moves = append(moves, s)
		}
		for s := sockets - 1; s >= 0; s-- {
			moves = append(moves, s)
		}
		for _, sock := range moves {
			k.SetTaskSocket(sock)
			for thread := 0; thread < 2*p.mem.NumCPUs(); thread++ {
				if got, want := k.CPUFor(thread), refCPUFor(p.mem, sock, thread); got != want {
					t.Fatalf("%s: socket %d thread %d: CPUFor = %d, reference %d", p.name, sock, thread, got, want)
				}
			}
		}
	}
}

// newCtxLoop takes and returns one op context on each socket of the
// Optane platform.
func newCtxLoop(k *kernel.Kernel) {
	for sock := 0; sock < 2; sock++ {
		k.SetTaskSocket(sock)
		for thread := 0; thread < 4; thread++ {
			k.PutCtx(k.NewCtx(thread))
		}
	}
}

// TestNewCtxIsAllocFree is the op-entry gate: once the context pool
// holds a context, NewCtx and PutCtx allocate nothing on either socket.
func TestNewCtxIsAllocFree(t *testing.T) {
	k := kernel.New(sim.NewEngine(), memsim.NewOptane(memsim.DefaultOptane(64)), policy.NewAutoNUMA())
	newCtxLoop(k)
	if n := testing.AllocsPerRun(200, func() { newCtxLoop(k) }); n != 0 {
		t.Fatalf("NewCtx+PutCtx allocates %v per loop", n)
	}
}

// catalogNames lists every policy policy.ByName builds.
func catalogNames() []string {
	names := append(policy.TwoTierNames(), policy.OptaneNames()...)
	return append(names, "all-slow", "all-remote")
}

// placer is one catalog policy attached to a kernel on its platform,
// with a file whose inode KLOC policies track.
type placer struct {
	name string
	pol  kernel.Policy
	ctx  *kstate.Ctx
	ino  uint64
}

func newPlacers(t testing.TB) []placer {
	optane := map[string]bool{}
	for _, n := range append(policy.OptaneNames(), "all-remote") {
		optane[n] = true
	}
	var out []placer
	for _, name := range catalogNames() {
		pol, err := policy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mem := memsim.NewTwoTier(memsim.DefaultTwoTier(64))
		if optane[name] {
			mem = memsim.NewOptane(memsim.DefaultOptane(64))
		}
		k := kernel.New(sim.NewEngine(), mem, pol)
		ctx := k.NewCtx(0)
		f, err := k.FS.Create(ctx, "/placed")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, placer{name: name, pol: pol, ctx: ctx, ino: f.Inode.Ino})
	}
	return out
}

func (p placer) place() {
	p.pol.PlaceKernel(p.ctx, kobj.PageCache, p.ino)
	p.pol.PlaceKernel(p.ctx, kobj.SkBuff, 0)
	p.pol.PlaceApp(p.ctx)
}

// TestPlacementIsAllocFree: every catalog policy hands out shared
// placement orders, so placing a kernel object or an app page
// allocates nothing.
func TestPlacementIsAllocFree(t *testing.T) {
	for _, p := range newPlacers(t) {
		if n := testing.AllocsPerRun(200, p.place); n != 0 {
			t.Errorf("%s: placement allocates %v per op", p.name, n)
		}
	}
}

// BenchmarkNewCtx times the gate's loop; one op is eight NewCtx+PutCtx
// pairs across both sockets.
func BenchmarkNewCtx(b *testing.B) {
	k := kernel.New(sim.NewEngine(), memsim.NewOptane(memsim.DefaultOptane(64)), policy.NewAutoNUMA())
	newCtxLoop(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newCtxLoop(k)
	}
}

// BenchmarkPlace times one op of the placement gate per policy: two
// PlaceKernel calls and one PlaceApp.
func BenchmarkPlace(b *testing.B) {
	for _, p := range newPlacers(b) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.place()
			}
		})
	}
}
