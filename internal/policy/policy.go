// Package policy implements Table 5's memory-management strategies:
//
// Two-tier platform:
//   - AllSlow / AllFast — the pessimistic and ideal bounds;
//   - Naive — greedy first-come-first-served fast-memory allocation,
//     no migration;
//   - Nimble — OS-controlled application-page tiering with parallel
//     page migration (Yan et al., ASPLOS'19); kernel objects live
//     entirely in slow memory, as prior two-tier work does (§3.2);
//   - Nimble++ — Nimble extended to migrate kernel pages through the
//     same scan-based machinery, without the KLOC abstraction;
//   - KLOCs / KLOCs-nomigration — the paper's contribution.
//
// Optane Memory-Mode platform:
//   - AllRemote / AllLocal — bounds;
//   - AutoNUMA — sampled cross-socket migration of application pages;
//   - NimbleNUMA — faster app-page migration, kernel pages ignored;
//   - AutoNUMA+KLOCs — kernel objects follow the task across sockets.
package policy

import (
	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Base supplies the boilerplate shared by all policies.
type Base struct {
	kstate.NopHooks
	K      *kernel.Kernel
	name   string
	period sim.Duration
}

// Name returns the strategy name.
func (b *Base) Name() string { return b.name }

// Attach wires the policy to its kernel.
func (b *Base) Attach(k *kernel.Kernel) { b.K = k }

// Tick does nothing by default.
func (b *Base) Tick(sim.Time) sim.Duration { return 0 }

// TickPeriod returns the daemon cadence (0 = no daemon).
func (b *Base) TickPeriod() sim.Duration { return b.period }

// Static is a placement-only policy: fixed fallback orders, no daemon.
// AllFast, AllSlow, and Naive are Static instances.
type Static struct {
	Base
	appOrder, kernOrder []memsim.NodeID
	// driverExtract marks ideal-bound configurations that get the
	// best-case kernel (driver-level socket demux) so they upper-bound
	// every real policy, including the KLOC ones.
	driverExtract bool
}

// DriverSockExtract reports whether this static bound models the
// best-case kernel.
func (s *Static) DriverSockExtract() bool { return s.driverExtract }

// NewStatic builds a placement-only policy.
func NewStatic(name string, appOrder, kernOrder []memsim.NodeID) *Static {
	return &Static{
		Base:      Base{name: name},
		appOrder:  appOrder,
		kernOrder: kernOrder,
	}
}

// PlaceApp returns the fixed application-page order.
func (s *Static) PlaceApp(*kstate.Ctx) []memsim.NodeID { return s.appOrder }

// PlaceKernel returns the fixed kernel-object order.
func (s *Static) PlaceKernel(*kstate.Ctx, kobj.Type, uint64) []memsim.NodeID {
	return s.kernOrder
}

// Two-tier convenience constructors (Table 5).

// AllFast places everything fast-first. Run it on a platform whose fast
// tier holds the whole footprint to get the paper's ideal bound.
func AllFast() *Static {
	p := NewStatic("all-fast", fastFirst, fastFirst)
	p.driverExtract = true
	return p
}

// AllSlow places everything in slow memory.
func AllSlow() *Static {
	return NewStatic("all-slow", slowOnly, slowOnly)
}

// Naive greedily fills fast memory first and never migrates.
func Naive() *Static {
	return NewStatic("naive", fastFirst, fastFirst)
}

// The placement orders every policy hands out. They are shared and
// read-only (kstate.Hooks), so placing an object allocates nothing.
var (
	fastFirst = []memsim.NodeID{memsim.FastNode, memsim.SlowNode}
	slowOnly  = []memsim.NodeID{memsim.SlowNode}
	slowFirst = []memsim.NodeID{memsim.SlowNode, memsim.FastNode}
)

var _ kernel.Policy = (*Static)(nil)
