package memsim

import "kloc/internal/sim"

// GB converts gigabytes to a page count.
func GB(gb float64) int { return int(gb * 1e9 / PageSize) }

// TwoTierConfig describes the paper's software-managed two-tier
// platform (Table 4): a fast, capacity-limited tier and a slow,
// high-capacity tier, with the slow tier realized by bandwidth
// throttling.
type TwoTierConfig struct {
	// FastPages / SlowPages are tier capacities in pages.
	FastPages, SlowPages int
	// FastBandwidth in bytes/ns (30 GB/s = 30.0).
	FastBandwidth float64
	// BandwidthRatio is slow:fast, e.g. 8 means fast has 8x the
	// bandwidth of slow (the paper's "1:8" x-axis label in Fig 6).
	BandwidthRatio float64
	// Latencies per access.
	FastLatency, SlowLatency sim.Duration
	CPUs                     int
}

// DefaultTwoTier mirrors Table 4 scaled by 1/scaleDiv: fast = 8 GB at
// 30 GB/s, slow = 80 GB, 1:4 bandwidth differential, 40 cores.
func DefaultTwoTier(scaleDiv int) TwoTierConfig {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return TwoTierConfig{
		FastPages:      GB(8) / scaleDiv,
		SlowPages:      GB(80) / scaleDiv,
		FastBandwidth:  30,
		BandwidthRatio: 4,
		FastLatency:    90,
		// SlowLatency left 0: NewTwoTier derives the throttled tier's
		// loaded latency from the bandwidth ratio.
		CPUs: 16,
	}
}

// Fast and Slow are the conventional node IDs on the two-tier platform.
const (
	FastNode NodeID = 0
	SlowNode NodeID = 1
)

// NewTwoTier builds the two-tier platform. Node 0 is fast, node 1 slow;
// all CPUs sit on socket 0 (tiers, not sockets, per §6.2).
func NewTwoTier(cfg TwoTierConfig) *Memory {
	ratio := cfg.BandwidthRatio
	if ratio <= 0 {
		ratio = 4
	}
	if cfg.SlowLatency == 0 {
		// A bandwidth-throttled DRAM tier has DRAM unloaded latency, but
		// the effective (loaded) latency under throttling scales with
		// the throttling factor — queueing at the narrowed channel. This
		// is what the paper's thermal-throttling platform measures.
		cfg.SlowLatency = sim.Duration(float64(cfg.FastLatency) * ratio)
	}
	fast := &Node{
		ID: FastNode, Kind: DRAM, Socket: 0,
		Capacity:    cfg.FastPages,
		ReadLatency: cfg.FastLatency, WriteLatency: cfg.FastLatency,
		Bandwidth: cfg.FastBandwidth,
	}
	slow := &Node{
		ID: SlowNode, Kind: DRAM, Socket: 0,
		Capacity:    cfg.SlowPages,
		ReadLatency: cfg.SlowLatency, WriteLatency: cfg.SlowLatency,
		Bandwidth: cfg.FastBandwidth / ratio,
	}
	cpus := make([]int, max(cfg.CPUs, 1))
	return New([]*Node{fast, slow}, cpus, 0)
}

// OptaneConfig describes the Memory-Mode platform (Table 4): two
// sockets, each with a PMEM node fronted by a hardware-managed DRAM L4
// cache; the OS places pages on sockets and AutoNUMA-style policies
// migrate between them.
type OptaneConfig struct {
	// PMEMPages per socket.
	PMEMPages int
	// L4Pages per socket (16 GB DRAM cache in the paper).
	L4Pages int
	// PMEM device characteristics: 2-3x read, ~5x write latency vs DRAM,
	// 1/3 bandwidth (§2).
	PMEMReadLatency, PMEMWriteLatency sim.Duration
	PMEMBandwidth                     float64
	// DRAM cache characteristics (3-4x faster than PMEM, §6.2).
	DRAMLatency   sim.Duration
	DRAMBandwidth float64
	// Interconnect latency between sockets.
	Interconnect sim.Duration
	CPUsPerSock  int
}

// DefaultOptane mirrors Table 4 scaled by 1/scaleDiv: 128 GB PMEM and a
// 16 GB DRAM cache per socket.
func DefaultOptane(scaleDiv int) OptaneConfig {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return OptaneConfig{
		PMEMPages:        GB(128) / scaleDiv,
		L4Pages:          GB(16) / scaleDiv,
		PMEMReadLatency:  300,
		PMEMWriteLatency: 500,
		PMEMBandwidth:    8,
		DRAMLatency:      90,
		DRAMBandwidth:    25,
		Interconnect:     120,
		CPUsPerSock:      8,
	}
}

// Socket node IDs on the Optane platform.
const (
	Socket0Node NodeID = 0
	Socket1Node NodeID = 1
)

// NewOptane builds the Memory-Mode platform: node i is socket i's PMEM,
// each fronted by a DRAM L4 cache; CPUs split evenly across sockets.
func NewOptane(cfg OptaneConfig) *Memory {
	n0 := &Node{
		ID: Socket0Node, Kind: PMEM, Socket: 0,
		Capacity:    cfg.PMEMPages,
		ReadLatency: cfg.PMEMReadLatency, WriteLatency: cfg.PMEMWriteLatency,
		Bandwidth: cfg.PMEMBandwidth,
	}
	n1 := &Node{
		ID: Socket1Node, Kind: PMEM, Socket: 1,
		Capacity:    cfg.PMEMPages,
		ReadLatency: cfg.PMEMReadLatency, WriteLatency: cfg.PMEMWriteLatency,
		Bandwidth: cfg.PMEMBandwidth,
	}
	cpus := make([]int, 2*max(cfg.CPUsPerSock, 1))
	for i := range cpus {
		if i >= cfg.CPUsPerSock {
			cpus[i] = 1
		}
	}
	m := New([]*Node{n0, n1}, cpus, cfg.Interconnect)
	m.AttachL4(0, cfg.L4Pages, cfg.DRAMLatency, cfg.DRAMBandwidth)
	m.AttachL4(1, cfg.L4Pages, cfg.DRAMLatency, cfg.DRAMBandwidth)
	return m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
