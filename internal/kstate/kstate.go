// Package kstate holds the small shared vocabulary between the
// simulated kernel subsystems (fs, netsim) and the policy layer that
// steers them: the per-operation context, inode/object ID generators,
// and the Hooks interface — the simulation's equivalent of the paper's
// 400+ redirected allocation sites and system-call intercepts (§4.2).
package kstate

import (
	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Ctx is the execution context of one kernel operation: the CPU it runs
// on, the virtual time it started, and the cost accumulated so far.
// Subsystems Charge costs as they touch memory and devices; the driver
// loop advances virtual time by the total when the operation retires.
type Ctx struct {
	CPU  int
	Now  sim.Time
	Cost sim.Duration
}

// Charge adds virtual cost to the operation.
func (c *Ctx) Charge(d sim.Duration) {
	if d > 0 {
		c.Cost += d
	}
}

// IDGen hands out monotonically increasing IDs (object IDs, inode
// numbers). The zero value is ready to use; the first ID is 1, so 0
// can mean "none".
type IDGen struct{ next uint64 }

// Next returns the next ID.
func (g *IDGen) Next() uint64 {
	g.next++
	return g.next
}

// Hooks is how the kernel subsystems consult the active tiering policy
// and report lifecycle events. A policy implements Hooks; NopHooks is
// the do-nothing base to embed.
//
// The fallback order PlaceKernel returns is shared and read-only: a
// policy hands out the same slice on every call, so placement
// allocates nothing, and callers must not modify it.
type Hooks interface {
	// PlaceKernel returns the node fallback order for a kernel-object
	// allocation of type t belonging to inode ino (0 when the owner is
	// not yet known, e.g. an undemuxed ingress packet).
	PlaceKernel(ctx *Ctx, t kobj.Type, ino uint64) []memsim.NodeID
	// UseKlocAllocator reports whether slab-class objects of type t
	// should come from the relocatable KLOC allocation interface
	// instead of the pinned slab (§4.4).
	UseKlocAllocator(t kobj.Type) bool
	// DriverSockExtract reports whether ingress packets are associated
	// with their socket inside the device driver (the paper's 8-byte
	// skbuff extension, §4.2.3) rather than high in the TCP stack.
	DriverSockExtract() bool

	// Lifecycle notifications.
	InodeCreated(ctx *Ctx, ino uint64, sock bool)
	InodeOpened(ctx *Ctx, ino uint64)
	InodeClosed(ctx *Ctx, ino uint64)
	InodeDeleted(ctx *Ctx, ino uint64)
	ObjectCreated(ctx *Ctx, ino uint64, o *kobj.Object)
	// ObjectAssociated fires when a late demux resolves an object's
	// owner (ingress path without driver extraction).
	ObjectAssociated(ctx *Ctx, ino uint64, o *kobj.Object)
	ObjectFreed(ctx *Ctx, o *kobj.Object)

	// Page-level notifications for the LRU machinery.
	PageAllocated(ctx *Ctx, f *memsim.Frame)
	PageAccessed(ctx *Ctx, f *memsim.Frame)
	PageFreed(ctx *Ctx, f *memsim.Frame)
}

// NopHooks implements Hooks with defaults: allocate everywhere in node
// order, classic slab, TCP-layer demux, ignore all notifications.
// Embed it to implement only what a policy needs.
type NopHooks struct{}

// nodeOrder is NopHooks' placement: node 0, then node 1.
var nodeOrder = []memsim.NodeID{0, 1}

// PlaceKernel returns node 0, then node 1.
func (n NopHooks) PlaceKernel(*Ctx, kobj.Type, uint64) []memsim.NodeID { return nodeOrder }

// UseKlocAllocator is false: classic slab.
func (n NopHooks) UseKlocAllocator(kobj.Type) bool { return false }

// DriverSockExtract is false: demux at the TCP layer.
func (n NopHooks) DriverSockExtract() bool { return false }

// InodeCreated does nothing.
func (n NopHooks) InodeCreated(*Ctx, uint64, bool) {}

// InodeOpened does nothing.
func (n NopHooks) InodeOpened(*Ctx, uint64) {}

// InodeClosed does nothing.
func (n NopHooks) InodeClosed(*Ctx, uint64) {}

// InodeDeleted does nothing.
func (n NopHooks) InodeDeleted(*Ctx, uint64) {}

// ObjectCreated does nothing.
func (n NopHooks) ObjectCreated(*Ctx, uint64, *kobj.Object) {}

// ObjectAssociated does nothing.
func (n NopHooks) ObjectAssociated(*Ctx, uint64, *kobj.Object) {}

// ObjectFreed does nothing.
func (n NopHooks) ObjectFreed(*Ctx, *kobj.Object) {}

// PageAllocated does nothing.
func (n NopHooks) PageAllocated(*Ctx, *memsim.Frame) {}

// PageAccessed does nothing.
func (n NopHooks) PageAccessed(*Ctx, *memsim.Frame) {}

// PageFreed does nothing.
func (n NopHooks) PageFreed(*Ctx, *memsim.Frame) {}

var _ Hooks = NopHooks{}
