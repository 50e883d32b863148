// Package workload models the I/O-intensive applications of Table 3 at
// operation granularity: every file and socket operation goes through
// the simulated kernel's syscall surface, so the kernel-object traffic
// the paper characterizes (Fig 2) and exploits (Fig 4-6) is generated
// by the same code paths the policies steer.
//
// Footprints are scaled from Table 3 by the platform scale divisor;
// shapes are invariant because every capacity in the system scales
// together (DESIGN.md §3).
package workload

import (
	"fmt"

	"kloc/internal/fault"
	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Workload is one Table-3 application model.
type Workload interface {
	// Name as the paper spells it.
	Name() string
	// Threads the workload drives (Table 3: 16 everywhere).
	Threads() int
	// Setup builds initial state (datasets, sockets, app heap).
	Setup(k *kernel.Kernel, r *sim.RNG) error
	// Step executes one operation on the given thread. The context
	// accumulates the operation's virtual cost.
	Step(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error
}

// Sized is implemented by workloads that can report their scaled
// footprint — app heap plus file dataset — in pages. The pressure
// experiment uses it to size the fast tier as a fraction of the
// dataset.
type Sized interface {
	DatasetPages() int
}

// Config scales a workload.
type Config struct {
	// ScaleDiv divides Table-3 footprints (64 = default laptop scale;
	// must match the platform's scale divisor).
	ScaleDiv int
	// Small selects the 10 GB input-class configuration of Fig 2b
	// instead of the 40 GB (Large) default.
	Small bool
	// Threads overrides Table 3's 16 threads (0 = default).
	Threads int
	// HugePages backs application heaps with 2 MB transparent huge
	// pages instead of 4 KB pages (§5's multi-page-size support).
	HugePages bool
}

func (c Config) withDefaults() Config {
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 64
	}
	if c.Threads <= 0 {
		c.Threads = 16
	}
	return c
}

// pages converts a Table-3 byte figure (in MB at full scale) to scaled
// simulation pages.
func (c Config) pages(mbFullScale float64) int {
	p := int(mbFullScale * 1e6 / 4096 / float64(c.ScaleDiv))
	if c.Small {
		p /= 4 // 10 GB vs 40 GB inputs
	}
	if p < 8 {
		p = 8
	}
	return p
}

// dataScale shrinks op-level constants for Small runs.
func (c Config) dataScale(n int) int {
	if c.Small {
		n /= 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Catalog returns all Table-3 workloads at the given config.
func Catalog(cfg Config) []Workload {
	return []Workload{
		NewRocksDB(cfg),
		NewRedis(cfg),
		NewFilebench(cfg),
		NewCassandra(cfg),
		NewSpark(cfg),
	}
}

// ByName looks a workload up by its Table-3 name.
func ByName(name string, cfg Config) (Workload, error) {
	for _, w := range Catalog(cfg) {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q: %w", name, fault.EINVAL)
}

// Names lists the catalog.
func Names() []string {
	return []string{"rocksdb", "redis", "filebench", "cassandra", "spark"}
}

// unsupported reports a configuration whose derived sizes cannot
// support the workload's access pattern, as an EINVAL-wrapping error:
// a user-reachable size must fail setup, never panic mid-run.
func unsupported(name, format string, args ...any) error {
	return fmt.Errorf("%s: %s: %w", name, fmt.Sprintf(format, args...), fault.EINVAL)
}

// allocHeap allocates an application heap of the given base-page size,
// honoring the THP configuration. The returned slice has one entry per
// frame; THP heaps have ~512x fewer, larger frames.
func (c Config) allocHeap(k *kernel.Kernel, ctx *kstate.Ctx, pages int) ([]*memsim.Frame, error) {
	if !c.HugePages {
		return k.AppAlloc(ctx, pages)
	}
	huge := pages / 512
	if huge < 1 {
		huge = 1
	}
	return k.AppAllocHuge(ctx, huge)
}
