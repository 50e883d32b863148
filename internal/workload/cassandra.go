package workload

import (
	"fmt"

	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/netsim"
	"kloc/internal/sim"
)

// Cassandra models the NoSQL store under YCSB (Table 3: 16 threads,
// 50/50 read-write, 11 GB footprint). Two traits the paper calls out in
// §7.1 make it the least kernel-placement-sensitive workload:
//
//   - a 512 MB application-level cache absorbs most reads before any
//     kernel I/O happens;
//   - Java/runtime overheads add application-side work to every
//     operation, diluting the kernel share of execution.
//
// Its writes still append to a commitlog and flush memtables to
// SSTables, so kernel objects exist — they just matter less.
type Cassandra struct {
	cfg Config

	heap     []*memsim.Frame // JVM heap: row cache + memtables
	sockets  []*netsim.Socket
	zipf     *sim.Zipf
	appCache float64

	logs       []*fs.File // per-thread commitlogs
	logIdx     []int64
	sstables   []string
	nextSST    int
	flushEvery int
	writes     []int
	sstPages   int64
}

// NewCassandra builds the model.
func NewCassandra(cfg Config) *Cassandra {
	cfg = cfg.withDefaults()
	return &Cassandra{
		cfg:        cfg,
		appCache:   0.80, // 512 MB row cache over 200 K keys
		flushEvery: cfg.dataScale(1024),
		sstPages:   int64(cfg.dataScale(64)),
	}
}

// Name implements Workload.
func (w *Cassandra) Name() string { return "cassandra" }

// Threads implements Workload.
func (w *Cassandra) Threads() int { return w.cfg.Threads }

// Setup allocates the JVM heap, opens sockets, and seeds SSTables.
func (w *Cassandra) Setup(k *kernel.Kernel, r *sim.RNG) error {
	// 11 GB footprint, heavily application-resident. SSTables keep a
	// fixed page count at every scale, so a small enough platform
	// cannot hold the heap plus the seeded tables.
	heapPages := w.cfg.pages(8000)
	have := 0
	for _, node := range k.Mem.Nodes {
		have += node.Capacity
	}
	if need := heapPages + cassandraSeedTables*int(w.sstPages); need > have {
		return unsupported("cassandra", "heap plus %d seed SSTables need %d pages, the platform has %d (lower the scale divisor)", cassandraSeedTables, need, have)
	}
	ctx := k.NewCtx(0)
	var err error
	w.heap, err = w.cfg.allocHeap(k, ctx, heapPages)
	if err != nil {
		return fmt.Errorf("cassandra: heap: %w", err)
	}
	w.zipf = sim.NewZipf(r.Fork(), 1.1, 200_000)
	w.sockets = make([]*netsim.Socket, w.cfg.Threads)
	w.writes = make([]int, w.cfg.Threads)
	w.logs = make([]*fs.File, w.cfg.Threads)
	w.logIdx = make([]int64, w.cfg.Threads)
	for i := range w.sockets {
		if w.sockets[i], err = k.Net.SocketCreate(ctx); err != nil {
			return err
		}
		if w.logs[i], err = k.FS.Create(ctx, fmt.Sprintf("/cassandra/commitlog-%02d", i)); err != nil {
			return err
		}
	}
	for i := 0; i < cassandraSeedTables; i++ {
		if err := w.flushSST(k, ctx); err != nil {
			return err
		}
	}
	return nil
}

// cassandraSeedTables is how many SSTables Setup flushes up front.
const cassandraSeedTables = 4

// Step serves one YCSB operation.
func (w *Cassandra) Step(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	s := w.sockets[thread]
	if err := k.Net.Deliver(ctx, s, 128); err != nil {
		return err
	}
	if _, err := k.Net.Recv(ctx, s, 1<<16); err != nil {
		return err
	}
	key := w.zipf.Next()
	// Java/runtime overhead: extra heap traffic on every op (§7.1).
	for i := 0; i < 14; i++ {
		k.AppAccess(ctx, w.heap[(key+i*97)%len(w.heap)], 256, i%3 == 0)
	}
	if r.Bool(0.5) { // read
		if !r.Bool(w.appCache) && len(w.sstables) > 0 {
			// Row-cache miss: SSTable lookup.
			path := w.sstables[key%len(w.sstables)]
			f, err := k.FS.Open(ctx, path)
			if err == nil {
				rerr := k.FS.Read(ctx, f, int64(key)%w.sstPages)
				k.FS.Close(ctx, f)
				if rerr != nil {
					return rerr
				}
			}
		}
	} else { // write
		w.writes[thread]++
		// Commitlog append (per-thread log, fsync batched).
		if err := k.FS.Write(ctx, w.logs[thread], w.logIdx[thread]); err != nil {
			return err
		}
		w.logIdx[thread]++
		if w.writes[thread]%64 == 0 {
			if err := k.FS.Fsync(ctx, w.logs[thread]); err != nil {
				return err
			}
		}
		if w.writes[thread]%w.flushEvery == 0 {
			if err := w.flushSST(k, ctx); err != nil {
				return err
			}
		}
	}
	// Reply (reads return data, writes ack).
	return k.Net.Send(ctx, s, 256)
}

func (w *Cassandra) flushSST(k *kernel.Kernel, ctx *kstate.Ctx) error {
	path := fmt.Sprintf("/cassandra/sst-%05d", w.nextSST)
	w.nextSST++
	f, err := k.FS.Create(ctx, path)
	if err != nil {
		return err
	}
	for i := int64(0); i < w.sstPages; i++ {
		if err := k.FS.Write(ctx, f, i); err != nil {
			return err
		}
	}
	if err := k.FS.Fsync(ctx, f); err != nil {
		return err
	}
	k.FS.Close(ctx, f)
	w.sstables = append(w.sstables, path)
	// Bound the store: expire the oldest table.
	if len(w.sstables) > 16 {
		old := w.sstables[0]
		w.sstables = w.sstables[1:]
		if err := k.FS.Unlink(ctx, old); err != nil {
			return err
		}
	}
	return nil
}
