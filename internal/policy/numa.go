package policy

import (
	"kloc/internal/kernel"
	"kloc/internal/kloc"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// NUMA policy tuning.
const (
	// autoNUMAScanPeriod: AutoNUMA's address-space sampling cadence.
	autoNUMAScanPeriod = 50 * sim.Millisecond
	// nimbleNUMAScanPeriod: Nimble's faster machinery.
	nimbleNUMAScanPeriod = 10 * sim.Millisecond
	// numaBatch pages migrated per pass.
	numaBatch = 512
)

// localNode returns the memory node of the task's current socket
// (node IDs equal socket IDs on the Optane platform).
func localNode(k *kernel.Kernel) memsim.NodeID { return memsim.NodeID(k.TaskSocket()) }

func otherNode(k *kernel.Kernel) memsim.NodeID { return memsim.NodeID(1 - k.TaskSocket()) }

// socketFirst[s] places on socket s's node, then the other socket's.
// Like the two-tier orders, the slices are shared and read-only.
var socketFirst = [2][]memsim.NodeID{
	{memsim.Socket0Node, memsim.Socket1Node},
	{memsim.Socket1Node, memsim.Socket0Node},
}

// AllRemote is Fig 5a's worst-case normalization baseline: every page
// is pinned to the task's ORIGINAL socket and nothing ever migrates, so
// once interference pushes the task to the other socket every access
// pays the interconnect.
type AllRemote struct{ Base }

// NewAllRemote returns the worst-case bound.
func NewAllRemote() *AllRemote { return &AllRemote{Base{name: "all-remote"}} }

// PlaceApp pins data to socket 0, where the task starts.
func (p *AllRemote) PlaceApp(*kstate.Ctx) []memsim.NodeID {
	return socketFirst[memsim.Socket0Node]
}

// PlaceKernel pins data to socket 0.
func (p *AllRemote) PlaceKernel(*kstate.Ctx, kobj.Type, uint64) []memsim.NodeID {
	return socketFirst[memsim.Socket0Node]
}

// AllLocal is the ideal: pages allocate locally and follow the task
// instantly and freely when it moves — Fig 5a's "all accesses local"
// bound.
type AllLocal struct{ Base }

// NewAllLocal returns the ideal bound.
func NewAllLocal() *AllLocal {
	return &AllLocal{Base{name: "all-local", period: 1 * sim.Millisecond}}
}

// DriverSockExtract: the ideal bound gets the best-case kernel.
func (p *AllLocal) DriverSockExtract() bool { return true }

// PlaceApp places locally.
func (p *AllLocal) PlaceApp(*kstate.Ctx) []memsim.NodeID {
	return socketFirst[localNode(p.K)]
}

// PlaceKernel places locally.
func (p *AllLocal) PlaceKernel(*kstate.Ctx, kobj.Type, uint64) []memsim.NodeID {
	return socketFirst[localNode(p.K)]
}

// Tick teleports every remote frame to the local node at zero cost —
// an oracle, not a mechanism.
func (p *AllLocal) Tick(now sim.Time) sim.Duration {
	local := localNode(p.K)
	remote := p.K.Mem.Node(otherNode(p.K))
	if remote.Used() == 0 {
		return 0
	}
	// Teleport by direct frame moves without cost or busy marking. A
	// move that fails (destination filled mid-scan) is simply skipped;
	// the oracle retries on its next tick.
	for _, f := range framesOn(p.K.Mem, otherNode(p.K)) {
		if p.K.Mem.CanMigrate(f, local) {
			//klocs:ignore-errno best-effort teleport; a failed move is retried on the next tick
			_, _ = p.K.Mem.MoveFrame(f, local, 0)
		}
	}
	return 0
}

// framesOn snapshots the frames on a node. The memory system does not
// index frames by node, so policies that need it (the oracle and the
// NUMA scanners) track allocations via hooks; the oracle instead scans
// the tracked sets of the kernel, which is acceptable for a bound.
func framesOn(m *memsim.Memory, node memsim.NodeID) []*memsim.Frame {
	return m.FramesOn(node)
}

// AutoNUMA approximates Linux's NUMA balancing: it periodically samples
// the task's application pages, fault-marks them, and migrates pages
// that fault remotely to the task's socket. Kernel pages are never
// migrated — the gap KLOCs fill (§4.5).
type AutoNUMA struct {
	Base
	// frames are the tracked app frames, in a deterministic order: a
	// tracked frame's Slot is its index here plus one.
	frames []*memsim.Frame
	// scratch holds one pass's victims or one knode's remote frames:
	// Migrate does not keep the batch.
	scratch []*memsim.Frame
	mig     *memsim.Migrator
	// moveKernel extends migration to kernel objects via the KLOC
	// registry (the AutoNUMA+KLOCs configuration).
	moveKernel bool
	Reg        *kloc.Registry
}

// NewAutoNUMA returns vanilla AutoNUMA.
func NewAutoNUMA() *AutoNUMA {
	return &AutoNUMA{Base: Base{name: "autonuma", period: autoNUMAScanPeriod}}
}

// NewNimbleNUMA returns Nimble on the Optane platform: the same
// app-page-only migration with a faster cadence and parallel copies.
func NewNimbleNUMA() *AutoNUMA {
	p := NewAutoNUMA()
	p.name = "nimble"
	p.period = nimbleNUMAScanPeriod
	return p
}

// NewAutoNUMAKlocs returns AutoNUMA enhanced with KLOCs: active knodes'
// kernel objects are checked for remote placement and migrated with the
// task (§4.5).
func NewAutoNUMAKlocs() *AutoNUMA {
	p := NewAutoNUMA()
	p.name = "autonuma+klocs"
	p.moveKernel = true
	return p
}

// Attach sets up the migrator (and registry for the KLOC variant).
func (p *AutoNUMA) Attach(k *kernel.Kernel) {
	p.Base.Attach(k)
	parallel := 1
	if p.name != "autonuma" {
		parallel = 4 // Nimble's parallel copies
	}
	p.mig = &memsim.Migrator{Mem: k.Mem, FixedPerPage: migFixedPerPage, Parallelism: parallel}
	if p.moveKernel {
		p.Reg = kloc.NewRegistry(k.Mem, k.Mem.NumCPUs())
	}
}

// PlaceApp allocates on the local socket.
func (p *AutoNUMA) PlaceApp(*kstate.Ctx) []memsim.NodeID {
	return socketFirst[localNode(p.K)]
}

// PlaceKernel allocates on the socket of the allocating CPU (what
// modern OSes do, §3.3).
func (p *AutoNUMA) PlaceKernel(ctx *kstate.Ctx, _ kobj.Type, _ uint64) []memsim.NodeID {
	return socketFirst[p.K.Mem.SocketOf(ctx.CPU)]
}

// UseKlocAllocator: the KLOC variant needs relocatable kernel objects.
func (p *AutoNUMA) UseKlocAllocator(kobj.Type) bool { return p.moveKernel }

// DriverSockExtract mirrors the KLOC design when kernel objects move.
func (p *AutoNUMA) DriverSockExtract() bool { return p.moveKernel }

// PageAllocated tracks app pages for the sampler.
func (p *AutoNUMA) PageAllocated(_ *kstate.Ctx, f *memsim.Frame) {
	if f.Class != memsim.ClassApp {
		return
	}
	p.frames = append(p.frames, f)
	f.Slot = int32(len(p.frames))
}

// PageFreed forgets the frame: the last tracked frame takes its slot.
func (p *AutoNUMA) PageFreed(_ *kstate.Ctx, f *memsim.Frame) {
	if f.Slot == 0 {
		return
	}
	i, last := f.Slot-1, len(p.frames)-1
	moved := p.frames[last]
	p.frames[i] = moved
	moved.Slot = i + 1
	p.frames = p.frames[:last]
	f.Slot = 0
}

// KLOC bookkeeping hooks (only live in the +KLOCs variant).

// InodeCreated maps a knode.
func (p *AutoNUMA) InodeCreated(ctx *kstate.Ctx, ino uint64, _ bool) {
	if p.Reg == nil {
		return
	}
	//klocs:ignore-errno lifecycle hooks have no error path; a mapping fault only leaves the knode unmapped
	_, cost, _ := p.Reg.MapKnode(ino, p.PlaceKernel(ctx, kobj.Inode, ino), ctx.Now)
	ctx.Charge(cost)
}

// InodeOpened reactivates.
func (p *AutoNUMA) InodeOpened(ctx *kstate.Ctx, ino uint64) {
	if p.Reg != nil {
		p.Reg.Activate(ctx.CPU, ino)
	}
}

// InodeClosed deactivates.
func (p *AutoNUMA) InodeClosed(ctx *kstate.Ctx, ino uint64) {
	if p.Reg != nil {
		p.Reg.Deactivate(ino)
	}
}

// InodeDeleted unmaps.
func (p *AutoNUMA) InodeDeleted(ctx *kstate.Ctx, ino uint64) {
	if p.Reg != nil {
		ctx.Charge(p.Reg.Delete(ino))
	}
}

// ObjectCreated indexes under the knode.
func (p *AutoNUMA) ObjectCreated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	if p.Reg == nil || ino == 0 {
		return
	}
	ctx.Charge(p.Reg.AddObject(ctx.CPU, ino, o))
}

// ObjectAssociated indexes late.
func (p *AutoNUMA) ObjectAssociated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	p.ObjectCreated(ctx, ino, o)
}

// ObjectFreed unindexes.
func (p *AutoNUMA) ObjectFreed(ctx *kstate.Ctx, o *kobj.Object) {
	if p.Reg != nil {
		ctx.Charge(p.Reg.RemoveObject(o))
	}
}

// Tick samples app pages (and active knodes in the KLOC variant) and
// migrates remote ones to the task's socket.
func (p *AutoNUMA) Tick(now sim.Time) sim.Duration {
	local := localNode(p.K)
	var cost sim.Duration

	// App pages: sample up to numaBatch recently used remote frames.
	victims := p.scratch[:0]
	for _, f := range p.frames {
		if len(victims) >= numaBatch {
			break
		}
		cost += 2 * sim.Microsecond / 10 // fault sampling tax per page
		if f.Node != local && now.Sub(f.LastAccess) < sim.Duration(2*p.period) {
			victims = append(victims, f)
		}
	}
	_, _, c := p.mig.Migrate(victims, local, now)
	cost += c
	p.scratch = victims

	// Kernel objects via KLOCs (the §4.5 enhancement). Short-lived
	// frames (younger than a scan period) are skipped: transient packet
	// buffers die before a cross-socket copy pays off (§4.4's "direct
	// allocation ... reduces the cost of moving kernel objects").
	if p.Reg != nil {
		young := now.Add(-p.period)
		for _, kn := range p.Reg.ActiveKnodes() {
			remote := p.scratch[:0]
			p.Reg.EachMovableFrame(kn, func(f *memsim.Frame) bool {
				if f.Node != local && f.Allocated < young {
					remote = append(remote, f)
				}
				return true
			})
			p.scratch = remote
			if len(remote) == 0 {
				continue
			}
			_, _, c := p.mig.Migrate(remote, local, now)
			cost += c
		}
	}
	return cost
}

var (
	_ kernel.Policy = (*AllRemote)(nil)
	_ kernel.Policy = (*AllLocal)(nil)
	_ kernel.Policy = (*AutoNUMA)(nil)
)
