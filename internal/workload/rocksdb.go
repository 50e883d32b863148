package workload

import (
	"fmt"

	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// RocksDB models Facebook's LSM key-value store under DBbench (Table 3:
// 1 M keys, 16 client threads, 50% reads / 50% writes, 12.4 GB
// footprint). The kernel-relevant behaviour the paper leans on:
//
//   - writes append to a WAL that is fsynced and periodically rotated;
//   - memtable flushes create new SSTable files that are written
//     sequentially, fsynced, and closed — their KLOCs turn cold
//     immediately (§3.2's canonical example);
//   - compaction reopens cold SSTables, reads them fully, writes merged
//     replacements, and unlinks the inputs — hundreds of thousands of
//     file creations/deletions over a run (§4.2.2);
//   - reads hit the app-level block cache or reopen a cold SSTable.
type RocksDB struct {
	cfg Config

	// app heap: memtable + block cache.
	heap []*memsim.Frame
	zipf *sim.Zipf

	wal          *fs.File
	walIdx       int64
	walWrites    int
	memtableFill int

	sstables []string // live SSTable paths, oldest first
	nextSST  int

	// fdCache models RocksDB's table-reader cache: hot SSTables stay
	// open (their KLOCs active); cold ones are evicted and closed. LRU
	// by most-recent position at the tail.
	fdCache    []*fs.File
	fdCacheCap int

	// derived sizes
	sstPages      int64
	flushEvery    int
	compactAt     int
	datasetTables int
	appCacheProb  float64
}

// NewRocksDB builds the model.
func NewRocksDB(cfg Config) *RocksDB {
	cfg = cfg.withDefaults()
	w := &RocksDB{
		cfg: cfg,
		// 4 MB SSTables at full scale (paper: "hundreds of 4MB files").
		sstPages:     int64(cfg.dataScale(128)),
		flushEvery:   cfg.dataScale(512),
		appCacheProb: 0.70,
		fdCacheCap:   32,
	}
	// The on-disk dataset: enough SSTables to dwarf the fast tier, as
	// the paper's 40 GB inputs dwarf 8 GB of fast memory.
	w.datasetTables = cfg.pages(20000) / int(w.sstPages)
	w.compactAt = w.datasetTables + 4
	return w
}

// Name implements Workload.
func (w *RocksDB) Name() string { return "rocksdb" }

// Threads implements Workload.
func (w *RocksDB) Threads() int { return w.cfg.Threads }

// DatasetPages implements Sized: the app heap (memtable + block cache)
// plus the on-disk SSTable dataset at the configured scale.
func (w *RocksDB) DatasetPages() int {
	return w.cfg.pages(6200) + w.datasetTables*int(w.sstPages)
}

// Setup allocates the app heap (memtable + block cache) and seeds the
// store with a handful of SSTables.
func (w *RocksDB) Setup(k *kernel.Kernel, r *sim.RNG) error {
	ctx := k.NewCtx(0)
	// 12.4 GB total footprint, roughly half app-side at steady state.
	heapPages := w.cfg.pages(6200)
	var err error
	w.heap, err = w.cfg.allocHeap(k, ctx, heapPages)
	if err != nil {
		return fmt.Errorf("rocksdb: heap: %w", err)
	}
	if len(w.heap) <= memtablePages {
		return unsupported("rocksdb", "%d-frame heap cannot hold the %d-frame memtable plus a block cache (lower the scale divisor or disable huge pages)", len(w.heap), memtablePages)
	}
	w.zipf = sim.NewZipf(r.Fork(), 1.25, 1_000_000)
	if w.wal, err = k.FS.Create(ctx, "/rocksdb/WAL"); err != nil {
		return err
	}
	// Load phase: build the on-disk dataset (DBbench fills the store
	// before the measured mix).
	for i := 0; i < w.datasetTables; i++ {
		if err := w.flushSST(k, ctx); err != nil {
			return err
		}
	}
	return nil
}

// Step runs one DBbench operation.
func (w *RocksDB) Step(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	if r.Bool(0.5) {
		return w.write(k, ctx, r)
	}
	return w.read(k, ctx, r)
}

// memtablePages is the active skiplist region at the head of the heap;
// the rest of the heap is the block cache, whose hotness follows key
// popularity.
const memtablePages = 2048

func (w *RocksDB) write(k *kernel.Kernel, ctx *kstate.Ctx, r *sim.RNG) error {
	// Memtable insert: skiplist walk over the (small, hot) memtable.
	for i := 0; i < 3; i++ {
		k.AppAccess(ctx, w.heap[r.Intn(memtablePages)], 256, i == 2)
	}
	// WAL append (several records share a page) + group-commit fsync.
	if err := k.FS.Write(ctx, w.wal, w.walIdx); err != nil {
		return err
	}
	w.walWrites++
	if w.walWrites%8 == 0 {
		w.walIdx++
	}
	if w.walWrites%64 == 0 {
		if err := k.FS.Fsync(ctx, w.wal); err != nil {
			return err
		}
	}
	w.memtableFill++
	if w.memtableFill >= w.flushEvery {
		w.memtableFill = 0
		if err := w.flushSST(k, ctx); err != nil {
			return err
		}
		if err := w.rotateWAL(k, ctx); err != nil {
			return err
		}
		if len(w.sstables) >= w.compactAt {
			if err := w.compact(k, ctx, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *RocksDB) read(k *kernel.Kernel, ctx *kstate.Ctx, r *sim.RNG) error {
	key := w.zipf.Next()
	// Memtable, then the block cache: hotness follows key popularity,
	// so most of the cache is cold at any instant.
	k.AppAccess(ctx, w.heap[memtablePages+(key*31)%(len(w.heap)-memtablePages)], 256, false)
	if r.Bool(w.appCacheProb) || len(w.sstables) == 0 {
		return nil
	}
	// Block-cache miss: find the SSTable via the table-reader cache.
	path := w.sstables[(key*2654435761)%len(w.sstables)]
	f, err := w.openCached(k, ctx, path)
	if err != nil || f == nil {
		return err
	}
	// Index block + data block.
	if err := k.FS.Read(ctx, f, 0); err != nil {
		return err
	}
	return k.FS.Read(ctx, f, int64(1+r.Intn(int(w.sstPages-1))))
}

// openCached returns an open handle for path, keeping up to fdCacheCap
// files open LRU-style. A nil file (with nil error) means the table
// vanished under compaction.
func (w *RocksDB) openCached(k *kernel.Kernel, ctx *kstate.Ctx, path string) (*fs.File, error) {
	for i, f := range w.fdCache {
		if f.Inode.Path == path {
			// Move to MRU tail.
			w.fdCache = append(append(w.fdCache[:i], w.fdCache[i+1:]...), f)
			return f, nil
		}
	}
	f, err := k.FS.Open(ctx, path)
	if err != nil {
		return nil, nil // compacted away under us
	}
	w.fdCache = append(w.fdCache, f)
	if len(w.fdCache) > w.fdCacheCap {
		victim := w.fdCache[0]
		w.fdCache = w.fdCache[1:]
		k.FS.Close(ctx, victim)
	}
	return f, nil
}

// dropFromFDCache closes a handle about to be unlinked.
func (w *RocksDB) dropFromFDCache(k *kernel.Kernel, ctx *kstate.Ctx, path string) {
	for i, f := range w.fdCache {
		if f.Inode.Path == path {
			w.fdCache = append(w.fdCache[:i], w.fdCache[i+1:]...)
			k.FS.Close(ctx, f)
			return
		}
	}
}

// flushSST writes a fresh SSTable sequentially, fsyncs, and closes it.
func (w *RocksDB) flushSST(k *kernel.Kernel, ctx *kstate.Ctx) error {
	path := fmt.Sprintf("/rocksdb/sst-%06d", w.nextSST)
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
	return nil
}

// rotateWAL unlinks the old log and starts a new one.
func (w *RocksDB) rotateWAL(k *kernel.Kernel, ctx *kstate.Ctx) error {
	k.FS.Close(ctx, w.wal)
	if err := k.FS.Unlink(ctx, "/rocksdb/WAL"); err != nil {
		return err
	}
	var err error
	w.wal, err = k.FS.Create(ctx, "/rocksdb/WAL")
	w.walIdx = 0
	return err
}

// compact merges the four oldest SSTables into two and unlinks the
// inputs — the read-modify-delete churn that makes RocksDB
// kernel-object heavy.
func (w *RocksDB) compact(k *kernel.Kernel, ctx *kstate.Ctx, r *sim.RNG) error {
	nIn := 4
	if len(w.sstables) < nIn {
		return nil
	}
	inputs := w.sstables[:nIn]
	w.sstables = w.sstables[nIn:]
	for _, path := range inputs {
		f, err := k.FS.Open(ctx, path)
		if err != nil {
			continue
		}
		for i := int64(0); i < w.sstPages; i++ {
			if err := k.FS.Read(ctx, f, i); err != nil {
				break
			}
		}
		k.FS.Close(ctx, f)
	}
	for i := 0; i < 2; i++ {
		if err := w.flushSST(k, ctx); err != nil {
			return err
		}
	}
	for _, path := range inputs {
		w.dropFromFDCache(k, ctx, path)
		if err := k.FS.Unlink(ctx, path); err != nil {
			return err
		}
	}
	return nil
}
