// Package memsim models the heterogeneous memory platforms of the
// paper's §6.2: page frames living on memory nodes with distinct
// latency/bandwidth/capacity, a cross-socket interconnect, an optional
// hardware-managed DRAM L4 cache in front of persistent memory (Intel
// Optane "Memory Mode"), and a migration engine with Nimble-style
// parallel page copies.
//
// The simulator tracks frame *metadata* only — a 4 KB page is a struct,
// not 4 KB of bytes — so experiments can afford millions of pages.
// All costs are returned as virtual durations; callers charge them to
// the simulation engine.
package memsim

import (
	"fmt"
	"sort"

	"kloc/internal/fault"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// PageSize is the simulated page size in bytes. The paper focuses on
// 4 KB pages (§5, "KLOC support for multi-page size").
const PageSize = 4096

// NodeID identifies a memory node. Node IDs are dense positions in
// Memory.Nodes, and both platforms have two nodes, so one byte holds
// every ID and lets Frame keep its node in the word after its ID.
type NodeID uint8

// NodeKind distinguishes memory technologies.
type NodeKind uint8

// Node kinds.
const (
	DRAM NodeKind = iota
	PMEM
)

func (k NodeKind) String() string {
	if k == PMEM {
		return "pmem"
	}
	return "dram"
}

// Class labels what a frame holds. Fig 2 and Fig 5b break results down
// by exactly these classes.
type Class uint8

// Frame classes.
const (
	ClassFree  Class = iota
	ClassApp         // application (userspace) page
	ClassCache       // page cache page (non-slab kernel object)
	ClassSlab        // slab-allocated kernel objects
	ClassKloc        // kernel objects on the relocatable KLOC allocator
	ClassMeta        // KLOC bookkeeping metadata (knodes, trees)
)

func (c Class) String() string {
	switch c {
	case ClassApp:
		return "app"
	case ClassCache:
		return "cache"
	case ClassSlab:
		return "slab"
	case ClassKloc:
		return "kloc"
	case ClassMeta:
		return "meta"
	default:
		return "free"
	}
}

// Kernel reports whether the class is a kernel-object class.
func (c Class) Kernel() bool {
	return c == ClassCache || c == ClassSlab || c == ClassKloc || c == ClassMeta
}

// Node is one memory device: a tier in the two-tier platform or a
// socket's memory in the Optane platform.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Socket   int
	Capacity int // pages

	// ReadLatency/WriteLatency are per-access device latencies.
	ReadLatency  sim.Duration
	WriteLatency sim.Duration
	// Bandwidth in bytes per nanosecond (1 GB/s ≈ 1.074 B/ns; we use
	// decimal GB: 1 GB/s = 1 B/ns).
	Bandwidth float64

	used int
	// migBusyUntil marks the node as carrying background migration
	// traffic; accesses before this time pay a bandwidth penalty.
	// Excessive migration damaging performance is a real effect the
	// paper calls out in §7.2.
	migBusyUntil sim.Time

	// wm holds the node's reclaim watermarks. The zero value disables
	// the reserve gate entirely, so nodes without watermarks behave as
	// if the pressure plane did not exist. Installed at setup or at a
	// reconfiguration boundary, never on the access path.
	wm Watermarks
}

// Watermarks are per-node reclaim thresholds in pages, mirroring
// Linux's zone watermarks: allocations that would leave fewer than Min
// free pages fail unless the allocator is in atomic context; kswapd
// wakes below Low and reclaims until free memory reaches High.
type Watermarks struct {
	Min, Low, High int
}

// Zero reports whether the watermarks are unset (reserve gate off).
func (w Watermarks) Zero() bool { return w.Min == 0 && w.Low == 0 && w.High == 0 }

// DeriveWatermarks computes default watermarks from a node capacity,
// following the shape (not the tunables) of Linux's
// min_free_kbytes-derived ladder: min ≈ capacity/64, low = min·5/4,
// high = min·3/2.
func DeriveWatermarks(capacityPages int) Watermarks {
	min := capacityPages / 64
	if min < 4 {
		min = 4
	}
	return Watermarks{Min: min, Low: min * 5 / 4, High: min * 3 / 2}
}

// SetWatermarks installs reclaim watermarks on the node.
func (n *Node) SetWatermarks(w Watermarks) { n.wm = w }

// NodeWatermarks returns the node's watermarks (zero if unset).
func (n *Node) NodeWatermarks() Watermarks { return n.wm }

// Used reports allocated pages.
func (n *Node) Used() int { return n.used }

// Free reports unallocated pages.
func (n *Node) Free() int { return n.Capacity - n.used }

// FrameID identifies a page frame.
type FrameID uint64

// Frame is the metadata for one simulated physical page — or, when
// Order > 0, a compound (huge) page covering 2^Order base pages (§5's
// multi-page-size support: THP regions tier as a unit).
//
// A Frame is 96 bytes, 170 of them to a 16 KiB chunk (frameChunk), so
// every field is placed. By byte offset:
//
//	 0  ID
//	 8  Node, Class, Order, Pinned (one byte each), InUse, Bump
//	16  Knode
//	24  Allocated
//	32  LastAccess
//	40  Migrations, Mapped, two bytes of padding, pos
//	48  Seen
//	56  prev, next, list
//	80  l4
//	88  Stamp, Slot
//
// Like struct page, a frame carries its owners' per-page state so that
// none of them keeps a map keyed by FrameID. Each such field has one
// owner: Seen is the reclaim scanner's (lru.Lists), prev/next/list the
// FrameList's, l4 the L4 caches', Stamp the frame walks' (NextStamp)
// and Slot the AutoNUMA tracked set's. Alloc zeroes all of them.
type Frame struct {
	ID    FrameID
	Node  NodeID
	Class Class
	// Order is the compound-page order: 0 = 4 KB, 9 = 2 MB.
	Order uint8

	// Pinned frames cannot migrate (slab allocations, §3.3: "cannot be
	// relocated").
	Pinned bool
	// InUse counts the live objects on a slab, KLOC-cache or arena
	// frame, and Bump is an arena frame's bump offset in bytes: the
	// slab fields Linux keeps in struct page. Alloc zeroes both.
	InUse, Bump uint16

	// Knode associates the frame with a KLOC (0 = none).
	Knode uint64

	Allocated  sim.Time
	LastAccess sim.Time
	// Migrations counts moves; the paper uses an 8-bit per-page counter
	// to damp ping-ponging (§4.5).
	Migrations uint8
	// Mapped marks an application page the kernel has mapped and not
	// yet unmapped (kernel.AppAlloc sets it, AppFree clears it).
	Mapped bool
	// pos is the frame's index in the live table (-1 = not live).
	// Maintained by Alloc/Free via swap-remove.
	pos int32

	// Seen is the reclaim scanner's stamp: the LastAccess value it
	// observed when it last looked at the frame (lru.Lists).
	Seen sim.Time
	// prev/next/list thread the frame onto at most one FrameList
	// (page->lru); list is nil when the frame is on none.
	prev, next *Frame
	list       *FrameList

	// l4 holds the frame's entry in each socket's L4 cache: an index
	// into its slab (0 = none) that counts only while the entry there
	// still records ID.
	l4 [l4Sockets]int32

	// Stamp is the stamp of the last frame walk that visited the frame:
	// a walk takes a fresh stamp from NextStamp and skips a frame that
	// already carries it, so it visits each frame once without a set.
	Stamp uint32
	// Slot is the frame's position in AutoNUMA's tracked set plus one
	// (0 = untracked); that set keeps it current as it swap-removes.
	Slot int32
}

// Stats aggregates the accounting the evaluation section needs. Every
// counter is written directly on the op/migration hot path, except the
// two maps, which SyncStats fills from their dense stores.
type Stats struct {
	// Refs counts memory references by class (Fig 2c).
	Refs [6]uint64
	// BytesTouched counts bytes moved through each class.
	BytesTouched [6]uint64
	// AllocsByClassNode counts page allocations per class per node
	// (Fig 2a/2b, Fig 5b "pages allocated in slow memory").
	AllocsByClassNode map[NodeID]*[6]uint64
	// Demotions / Promotions count page migrations fast->slow and
	// slow->fast (or local<->remote) (§4.4, Fig 5b).
	Demotions  uint64
	Promotions uint64
	// MigratedPages counts every page move.
	MigratedPages uint64
	// AllocFaults / MigrationFaults count injected failures from the
	// fault plane (zero when no plane is armed).
	AllocFaults     uint64
	MigrationFaults uint64
	// ReserveDips counts atomic-context allocations that dipped below a
	// node's Min watermark — successful GFP_ATOMIC-style draws on the
	// emergency reserve.
	ReserveDips uint64
	// WatermarkBlocks counts non-atomic allocations refused by the Min
	// watermark gate (room existed but only inside the reserve).
	WatermarkBlocks uint64
	// L4Hits/L4Misses count Memory-Mode DRAM cache behaviour.
	L4Hits, L4Misses uint64
	// RefsByNode counts references served by each node (placement
	// quality: the fraction served by the fast/local node).
	RefsByNode map[NodeID]uint64
}

// Memory is a set of nodes plus topology: which socket each CPU lives
// on, interconnect cost, and optional per-socket L4 caches.
type Memory struct {
	Nodes []*Node
	// CPUSocket maps logical CPU -> socket.
	CPUSocket []int
	// Interconnect is the added latency for a cross-socket access.
	Interconnect sim.Duration

	// Fault, when non-nil, is consulted on every allocation and every
	// batched migration. A nil plane injects nothing. Armed between
	// runs (kernel.InjectFaults), never on the hot path.
	Fault *fault.Plane

	// Trace, when non-nil, records memsim.migrate events for every
	// batched frame move. The tracer is strictly passive; a nil tracer
	// leaves runs bit-identical. Rewired only at attach time.
	Trace *trace.Tracer

	// l4 caches, indexed by socket; nil entries mean no cache. The
	// slice is installed by AttachL4 at setup.
	l4 []*l4Cache

	// live is the compact live-frame table (DESIGN.md §13); each live
	// frame's pos is its index here.
	live      []*Frame
	nextFrame FrameID
	// freeFrames is the frame freelist: Free pushes retired Frame
	// structs, Alloc recycles them (with fresh IDs, so stale FrameIDs
	// never alias a new allocation's identity).
	freeFrames []*Frame
	// chunk holds the fresh Frames not yet handed out from the last
	// frameChunk-sized block, the way struct page comes out of one
	// mem_map array rather than one allocation per page.
	chunk     []Frame
	poolFresh uint64
	poolReuse uint64
	// refsByNode and allocsDense are the stores behind
	// Stats.RefsByNode and Stats.AllocsByClassNode, and usedDense holds
	// current page occupancy per node per class (capacity-limit
	// enforcement, sys_kloc_memsize). All three are indexed by NodeID
	// (node IDs are dense positions in Nodes). Occupancy is control
	// flow (capacity limits), so it is updated exactly.
	refsByNode  []uint64
	allocsDense [][6]uint64
	usedDense   [][6]int
	// stamp is the last walk stamp NextStamp issued (0 = none yet).
	stamp uint32
	// atomicDepth > 0 marks GFP_ATOMIC context: allocations may dip
	// into the watermark reserve (rx path, journal commits, reclaim
	// itself — the PF_MEMALLOC analog). The simulation is single-
	// threaded, so a plain depth counter is race-free.
	atomicDepth int

	Stats Stats
}

// New builds a Memory from nodes and a CPU->socket map.
func New(nodes []*Node, cpuSocket []int, interconnect sim.Duration) *Memory {
	m := &Memory{
		Nodes:        nodes,
		CPUSocket:    cpuSocket,
		Interconnect: interconnect,
		nextFrame:    1,
	}
	m.Stats.AllocsByClassNode = make(map[NodeID]*[6]uint64)
	m.Stats.RefsByNode = make(map[NodeID]uint64)
	for _, n := range nodes {
		m.Stats.AllocsByClassNode[n.ID] = &[6]uint64{}
	}
	maxSock := 0
	for _, s := range cpuSocket {
		if s > maxSock {
			maxSock = s
		}
	}
	m.l4 = make([]*l4Cache, maxSock+1)
	m.refsByNode = make([]uint64, len(nodes))
	m.allocsDense = make([][6]uint64, len(nodes))
	m.usedDense = make([][6]int, len(nodes))
	return m
}

// SyncStats copies the dense per-node stores into Stats' two maps, so a
// direct read of Stats.RefsByNode or Stats.AllocsByClassNode is exact;
// every other Stats counter is always current. The harness calls it at
// its snapshot and collect boundaries; tests reading those maps after
// traffic must call it too. Idempotent, accounting-only, and invisible
// to the simulation.
func (m *Memory) SyncStats() {
	for i, v := range m.refsByNode {
		// Only touched nodes get a key, so RefsByNode lists exactly the
		// nodes that served a reference.
		if v > 0 {
			m.Stats.RefsByNode[NodeID(i)] = v
		}
	}
	for i := range m.allocsDense {
		*m.Stats.AllocsByClassNode[NodeID(i)] = m.allocsDense[i]
	}
}

// PerfCounters are the accounting plane's own deterministic meters:
// the per-access counter updates and their store writes, and
// frame-pool recycling. Each run reports them in harness.Result.Perf;
// they are not part of Stats, which holds only what the simulation
// observed.
type PerfCounters struct {
	// AccAdds and AccCommits are both the accesses counted: every
	// counter update is a direct store write, so the benchmark's
	// percpu.commit_ratio reads 1. They stay only because bench/ reads
	// them and digests their zero values; the benchmark change that
	// retires that metric deletes them.
	AccAdds, AccCommits       uint64
	FramesFresh, FramesReused uint64
}

// PerfCounters reports the accounting plane's meters.
func (m *Memory) PerfCounters() PerfCounters {
	var accesses uint64
	for _, n := range m.Stats.Refs {
		accesses += n
	}
	return PerfCounters{
		AccAdds: accesses, AccCommits: accesses,
		FramesFresh: m.poolFresh, FramesReused: m.poolReuse,
	}
}

// Node returns the node with the given id.
func (m *Memory) Node(id NodeID) *Node { return m.Nodes[int(id)] }

// AttachL4 installs a hardware-managed DRAM cache of capacityPages in
// front of all accesses from the given socket, with the given hit
// latency/bandwidth (Memory Mode, §6.2). Frames keep one L4 slot per
// socket for sockets 0 and 1 only, so a socket beyond them (or beyond
// the CPU map) panics: it is a construction bug.
func (m *Memory) AttachL4(socket, capacityPages int, hitLatency sim.Duration, hitBandwidth float64) {
	if socket < 0 || socket >= l4Sockets || socket >= len(m.l4) {
		panic(fmt.Sprintf("memsim: AttachL4 on socket %d of %d: frames have L4 slots for %d", socket, len(m.l4), l4Sockets))
	}
	m.l4[socket] = newL4Cache(capacityPages, hitLatency, hitBandwidth)
}

// SocketOf returns the socket of a CPU.
func (m *Memory) SocketOf(cpu int) int {
	if cpu < 0 || cpu >= len(m.CPUSocket) {
		return 0
	}
	return m.CPUSocket[cpu]
}

// NumCPUs reports the number of logical CPUs.
func (m *Memory) NumCPUs() int { return len(m.CPUSocket) }

// ErrNoMemory is returned when a node has no free pages. It is the
// fault plane's ENOMEM errno, so injected exhaustion and genuine
// exhaustion take the same recovery paths (reclaim, node fallback).
var ErrNoMemory error = fault.ENOMEM

// faultPointFor maps an allocation class to its fault point: slab-like
// (pinned/relocatable kernel-object and metadata) frames vs app and
// page-cache frames.
func faultPointFor(class Class) fault.Point {
	switch class {
	case ClassSlab, ClassKloc, ClassMeta:
		return fault.AllocSlab
	default:
		return fault.AllocPage
	}
}

// Alloc allocates one base-order frame on the given node for the given
// class.
func (m *Memory) Alloc(node NodeID, class Class, now sim.Time) (*Frame, error) {
	return m.AllocOrder(node, class, 0, now)
}

// AllocOrder allocates a compound frame of 2^order base pages.
func (m *Memory) AllocOrder(node NodeID, class Class, order uint8, now sim.Time) (*Frame, error) {
	n := m.Node(node)
	pages := 1 << order
	if n.used+pages > n.Capacity {
		return nil, ErrNoMemory
	}
	// Watermark reserve gate: a non-atomic allocation may not leave the
	// node below its Min watermark — that headroom is the emergency
	// reserve for atomic contexts (rx path, journal, reclaim).
	if !n.wm.Zero() && m.atomicDepth == 0 && n.Free()-pages < n.wm.Min {
		m.Stats.WatermarkBlocks++
		return nil, ErrNoMemory
	}
	// Injected exhaustion: the node claims to be full even though it has
	// room. Per-node injection means AllocFallback naturally falls
	// through to the next node in the placement order.
	if e := m.Fault.Check(faultPointFor(class), now); e != 0 {
		m.Stats.AllocFaults++
		return nil, e
	}
	if !n.wm.Zero() && m.atomicDepth > 0 && n.Free()-pages < n.wm.Min {
		m.Stats.ReserveDips++
	}
	n.used += pages
	// Retired Frame structs are recycled off the freelist; the frame
	// still gets a fresh, never-reused ID, so FrameID identity is stable
	// across recycling.
	var f *Frame
	if last := len(m.freeFrames) - 1; last >= 0 {
		f = m.freeFrames[last]
		m.freeFrames = m.freeFrames[:last]
		m.poolReuse++
	} else {
		if len(m.chunk) == 0 {
			m.chunk = make([]Frame, frameChunk)
		}
		f = &m.chunk[0]
		m.chunk = m.chunk[1:]
		m.poolFresh++
	}
	*f = Frame{
		ID:         m.nextFrame,
		Node:       node,
		Class:      class,
		Order:      order,
		Allocated:  now,
		LastAccess: now,
	}
	m.nextFrame++
	f.pos = int32(len(m.live))
	m.live = append(m.live, f)
	m.allocsDense[node][class] += uint64(pages)
	m.usedDense[node][class] += pages
	return f, nil
}

// frameChunk is how many fresh Frames one allocation carves. A block
// of Frames holds pointers, so Go adds an 8-byte header to it: 170 ×
// 96 B + 8 fills the 16 KiB size class, where 256 frames would land in
// the 27,264-byte class and waste a tenth of every block.
// TestFrameChunkFitsSizeClass pins the arithmetic.
const frameChunk = 170

// NextStamp starts a frame walk and returns its stamp. A walk marks
// each frame it visits by setting Frame.Stamp to the stamp, and treats
// a frame that already carries it as seen, so a walk over objects that
// share frames visits each frame once and builds no set. A walk must
// finish before the next one starts, and visits only live frames.
// Stamps skip 0, which Alloc gives every frame; when the counter wraps,
// NextStamp first clears every live frame's stamp, so no stamp left
// from before the wrap can match a later walk.
func (m *Memory) NextStamp() uint32 {
	m.stamp++
	if m.stamp == 0 {
		for _, f := range m.live {
			f.Stamp = 0
		}
		m.stamp = 1
	}
	return m.stamp
}

// EnterAtomic enters GFP_ATOMIC context: until the returned function is
// called, allocations may dip into the watermark reserve below Min.
// Nestable; the simulation is single-goroutine so no locking is needed.
//
//	defer mem.EnterAtomic()()
func (m *Memory) EnterAtomic() func() {
	m.atomicDepth++
	return func() { m.atomicDepth-- }
}

// Pages reports the base pages a frame covers.
func (f *Frame) Pages() int { return 1 << f.Order }

// KernelUsed reports a node's current page occupancy across all
// kernel-object classes.
func (m *Memory) KernelUsed(node NodeID) int {
	u := &m.usedDense[node]
	return u[ClassCache] + u[ClassSlab] + u[ClassKloc] + u[ClassMeta]
}

// AllocFallback tries nodes in order, returning the first success.
func (m *Memory) AllocFallback(order []NodeID, class Class, now sim.Time) (*Frame, error) {
	for _, id := range order {
		if f, err := m.Alloc(id, class, now); err == nil {
			return f, nil
		}
	}
	return nil, ErrNoMemory
}

// Free releases a frame. Freeing a frame that is not live is a no-op
// (double free); note that the no-op guarantee only holds until the
// struct is recycled into a new allocation — the
// sanitizer plane (alloc.Sanitizer) is the gate that proves callers
// keep the single-free discipline that recycling relies on. A frame
// still on a FrameList comes off it, so no list keeps a link to a
// struct that is about to be recycled.
func (m *Memory) Free(f *Frame) {
	if f == nil {
		return
	}
	if f.pos < 0 || int(f.pos) >= len(m.live) || m.live[f.pos] != f {
		return // double free is a no-op
	}
	if f.list != nil {
		f.list.Remove(f)
	}
	last := len(m.live) - 1
	moved := m.live[last]
	m.live[f.pos] = moved
	moved.pos = f.pos
	m.live = m.live[:last]
	f.pos = -1
	m.usedDense[f.Node][f.Class] -= f.Pages()
	m.Node(f.Node).used -= f.Pages()
	f.Class = ClassFree
	m.freeFrames = append(m.freeFrames, f)
}

// EachLive calls fn on every live frame, in live-table order (which is
// arbitrary: use it only where order cannot matter). fn must not
// allocate or free frames.
func (m *Memory) EachLive(fn func(*Frame)) {
	for _, f := range m.live {
		fn(f)
	}
}

// FramesOn returns the live frames on a node, sorted by frame ID for
// deterministic iteration (the live table's swap-remove order is
// arbitrary).
func (m *Memory) FramesOn(node NodeID) []*Frame {
	out := make([]*Frame, 0, m.Node(node).Used())
	for _, f := range m.live {
		if f.Node == node {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Access charges a read or write of `bytes` bytes on frame f from the
// given CPU and returns the virtual cost. It updates recency metadata
// and reference statistics.
func (m *Memory) Access(cpu int, f *Frame, bytes int, write bool, now sim.Time) sim.Duration {
	f.LastAccess = now
	m.Stats.Refs[f.Class]++
	m.Stats.BytesTouched[f.Class] += uint64(bytes)
	m.refsByNode[f.Node]++
	node := m.Node(f.Node)
	sock := m.SocketOf(cpu)

	// Memory-Mode: the socket-local DRAM L4 cache intercepts accesses to
	// PMEM nodes on the same socket.
	if node.Kind == PMEM && sock == node.Socket {
		if c := m.l4[sock]; c != nil {
			if c.access(f, &f.l4[sock]) {
				m.Stats.L4Hits++
				return c.hitLatency + sim.Duration(float64(bytes)/c.hitBandwidth)
			}
			m.Stats.L4Misses++
			// Fall through: pay PMEM cost; the line is now cached.
		}
	}

	lat := node.ReadLatency
	if write {
		lat = node.WriteLatency
	}
	bw := node.Bandwidth
	if sock != node.Socket {
		lat += m.Interconnect
		bw *= remoteBandwidthFactor
	}
	if now < node.migBusyUntil {
		// Background migration is consuming this node's bandwidth.
		bw *= migrationBandwidthShare
	}
	return lat + sim.Duration(float64(bytes)/bw)
}

// migrationBandwidthShare is the fraction of node bandwidth left for
// foreground traffic while migration copies are in flight.
const migrationBandwidthShare = 0.8

// remoteBandwidthFactor scales bandwidth for cross-socket accesses
// (QPI/UPI is narrower than the local memory bus).
const remoteBandwidthFactor = 0.6

// NoteMigrationLoad extends a node's migration-busy horizon by d.
func (m *Memory) NoteMigrationLoad(id NodeID, now sim.Time, d sim.Duration) {
	n := m.Node(id)
	if n.migBusyUntil < now {
		n.migBusyUntil = now
	}
	n.migBusyUntil = n.migBusyUntil.Add(d)
}

// CanMigrate reports whether a frame is movable to dst right now.
func (m *Memory) CanMigrate(f *Frame, dst NodeID) bool {
	if f == nil || f.Pinned || f.Node == dst {
		return false
	}
	return m.Node(dst).Free() >= f.Pages()
}

// MoveFrame relocates a single frame to dst, updating occupancy and
// stats, and returns the copy cost (before parallelism scaling). An
// invalid move (pinned frame, same node, destination full) returns
// EBUSY and leaves the frame where it is; callers retry on a later
// tick.
func (m *Memory) MoveFrame(f *Frame, dst NodeID, fixed sim.Duration) (sim.Duration, error) {
	if !m.CanMigrate(f, dst) {
		return 0, fault.EBUSY
	}
	src := m.Node(f.Node)
	dstN := m.Node(dst)
	src.used -= f.Pages()
	dstN.used += f.Pages()
	m.usedDense[f.Node][f.Class] -= f.Pages()
	m.usedDense[dst][f.Class] += f.Pages()
	fasterDst := dstN.ReadLatency < src.ReadLatency ||
		(dstN.ReadLatency == src.ReadLatency && dstN.Bandwidth > src.Bandwidth)
	if fasterDst {
		m.Stats.Promotions++
	} else {
		m.Stats.Demotions++
	}
	m.Stats.MigratedPages += uint64(f.Pages())
	f.Node = dst
	if f.Migrations < 255 {
		f.Migrations++
	}
	bw := src.Bandwidth
	if dstN.Bandwidth < bw {
		bw = dstN.Bandwidth
	}
	return fixed + sim.Duration(float64(PageSize*f.Pages())/bw), nil
}

// Migrator batches frame moves with a parallel-copy model: Nimble
// parallelizes page copies across threads (§2, Table 5), dividing the
// serial copy time by Parallelism.
type Migrator struct {
	Mem *Memory
	// FixedPerPage covers page-table updates and TLB shootdown.
	FixedPerPage sim.Duration
	// Parallelism is the number of concurrent copy threads.
	Parallelism int
}

// Migrate moves every movable frame in the batch to dst, stopping when
// dst fills. It returns the pages moved, the pages whose move faulted
// (injected EBUSY — they stay put and should be retried on a later
// tick), and the total virtual cost; both endpoints are marked
// migration-busy for that duration (copies consume bandwidth that
// foreground accesses then contend for).
func (mg *Migrator) Migrate(frames []*Frame, dst NodeID, now sim.Time) (moved, faulted int, cost sim.Duration) {
	var serial sim.Duration
	var srcSeen [1 << 8]bool // by NodeID
	for _, f := range frames {
		if !mg.Mem.CanMigrate(f, dst) {
			continue
		}
		if e := mg.Mem.Fault.Check(fault.Migrate, now); e != 0 {
			mg.Mem.Stats.MigrationFaults++
			faulted++
			continue
		}
		src := f.Node
		d, err := mg.Mem.MoveFrame(f, dst, mg.FixedPerPage)
		if err != nil {
			continue // lost a race with another mutation; skip
		}
		srcSeen[src] = true
		serial += d
		moved++
		mg.Mem.Trace.Emit(trace.Migrate, now, f.Knode, uint64(f.ID),
			f.Class.String(), int(dst), int64(f.Pages()))
	}
	p := mg.Parallelism
	if p < 1 {
		p = 1
	}
	cost = serial / sim.Duration(p)
	if moved > 0 {
		mg.Mem.NoteMigrationLoad(dst, now, cost)
		for _, n := range mg.Mem.Nodes {
			if srcSeen[n.ID] {
				mg.Mem.NoteMigrationLoad(n.ID, now, cost)
			}
		}
	}
	return moved, faulted, cost
}

// --- L4 cache (Memory Mode) ---

// l4Sockets bounds the sockets with an L4 cache: every frame keeps one
// slot per socket (Frame.l4).
const l4Sockets = 2

// l4Cache is a fully-associative LRU page cache standing in for the
// hardware-managed DRAM cache of Optane Memory Mode. Real hardware is
// direct-mapped at cacheline granularity; at the page granularity our
// workloads operate on, LRU over frame IDs captures the same
// hit-when-hot / miss-when-cold behaviour the evaluation depends on.
//
// The entries live in one slab, and a frame reaches its entry through
// its slot for the cache's socket, so no access probes a map. The slab
// grows as misses fill it, doubling up to capacity+1 entries (the
// sentinel included): reserving it up front would cost a full-scale
// run about 62 MB per socket before the first access. An entry
// belongs to the frame whose ID it records. FrameIDs are never reused, so a freed or recycled frame's
// entry stays on the list as a ghost that holds capacity until it is
// evicted, and an entry evicted for another frame rewrites its id,
// which makes the old frame's slot stop matching.
type l4Cache struct {
	capacity     int
	hitLatency   sim.Duration
	hitBandwidth float64

	// entries is the slab, linked into a circular recency list by
	// index. Entry 0 is its sentinel: its next is the most recent entry
	// and its prev the least recent.
	entries []l4Entry
}

type l4Entry struct {
	id         FrameID
	prev, next int32
}

func newL4Cache(capacity int, hitLatency sim.Duration, hitBandwidth float64) *l4Cache {
	return &l4Cache{capacity: capacity, hitLatency: hitLatency, hitBandwidth: hitBandwidth,
		entries: make([]l4Entry, 1)}
}

// access touches frame f, whose slot for this cache's socket is slot,
// returns true on hit, and inserts on miss. A full cache evicts its LRU
// entry and reuses it for f; a cache of capacity below one page holds
// nothing and misses every access.
func (c *l4Cache) access(f *Frame, slot *int32) bool {
	i := *slot
	if i > 0 && int(i) < len(c.entries) && c.entries[i].id == f.ID {
		c.unlink(i)
		c.pushFront(i)
		return true
	}
	if c.capacity < 1 {
		return false
	}
	if n := len(c.entries); n <= c.capacity {
		if n == cap(c.entries) {
			grown := make([]l4Entry, n, min(2*n, c.capacity+1))
			copy(grown, c.entries)
			c.entries = grown
		}
		i = int32(n)
		c.entries = c.entries[:n+1]
	} else {
		i = c.entries[0].prev
		c.unlink(i)
	}
	c.entries[i].id = f.ID
	*slot = i
	c.pushFront(i)
	return false
}

func (c *l4Cache) unlink(i int32) {
	e := c.entries[i]
	c.entries[e.prev].next = e.next
	c.entries[e.next].prev = e.prev
}

func (c *l4Cache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = 0, c.entries[0].next
	c.entries[e.next].prev = i
	c.entries[0].next = i
}
