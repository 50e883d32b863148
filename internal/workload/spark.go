package workload

import (
	"fmt"

	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// Spark models Table 3's Terasort over an HDFS-like file layout: a
// generate phase that writes the dataset as block files, then an
// analytics phase that streams those files back (triggering readahead),
// shuffles in the application heap, and writes sorted output with
// checkpoints. Table 3: 20 GB data, 16 threads, 32.1 GB footprint.
//
// The paper uses Spark for the Fig 2 characterizations but excludes it
// from the performance plots (firewall issues, §6.1); this model is
// likewise wired into the characterization experiments.
type Spark struct {
	cfg Config

	heap       []*memsim.Frame
	blockPages int64
	nBlocks    int

	// phase progress, per thread: each thread owns nBlocks/threads
	// blocks and walks generate -> sort -> write.
	genBlock  []int
	sortBlock []int
	sortPage  []int64
	outBlock  []int
	outPage   []int64
	outFiles  []*fs.File
}

// NewSpark builds the model.
func NewSpark(cfg Config) *Spark {
	cfg = cfg.withDefaults()
	w := &Spark{cfg: cfg}
	// 20 GB dataset in 128 HDFS-ish blocks at full scale.
	w.nBlocks = 128
	w.blockPages = int64(cfg.pages(20000) / w.nBlocks)
	return w
}

// Name implements Workload.
func (w *Spark) Name() string { return "spark" }

// Threads implements Workload.
func (w *Spark) Threads() int { return w.cfg.Threads }

// Setup allocates the executor heaps.
func (w *Spark) Setup(k *kernel.Kernel, r *sim.RNG) error {
	if w.blockPages < 1 || w.blocksPerThread() < 1 {
		return unsupported("spark", "%d blocks of %d pages cannot give %d threads a block each (lower the scale divisor or the thread count)", w.nBlocks, w.blockPages, w.cfg.Threads)
	}
	ctx := k.NewCtx(0)
	var err error
	// Executor JVM heaps (32.1 GB total footprint; ~12 GB heap-side).
	w.heap, err = w.cfg.allocHeap(k, ctx, w.cfg.pages(12000))
	if err != nil {
		return fmt.Errorf("spark: heap: %w", err)
	}
	n := w.cfg.Threads
	w.genBlock = make([]int, n)
	w.sortBlock = make([]int, n)
	w.sortPage = make([]int64, n)
	w.outBlock = make([]int, n)
	w.outPage = make([]int64, n)
	w.outFiles = make([]*fs.File, n)
	return nil
}

func (w *Spark) blocksPerThread() int { return w.nBlocks / w.cfg.Threads }

func (w *Spark) blockPath(thread, b int) string {
	return fmt.Sprintf("/hdfs/part-%02d-%04d", thread, b)
}

// Step advances the thread's pipeline: each call performs one
// block-page worth of work in the current phase.
func (w *Spark) Step(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	per := w.blocksPerThread()
	switch {
	case w.genBlock[thread] < per:
		return w.generate(k, ctx, thread, r)
	case w.sortBlock[thread] < per:
		return w.sortRead(k, ctx, thread, r)
	default:
		return w.writeOutput(k, ctx, thread, r)
	}
}

// generate writes one whole block file sequentially and closes it.
func (w *Spark) generate(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	b := w.genBlock[thread]
	f, err := k.FS.Create(ctx, w.blockPath(thread, b))
	if err != nil {
		return err
	}
	for p := int64(0); p < w.blockPages; p++ {
		k.AppAccess(ctx, w.heap[(int(p)+thread*131)%len(w.heap)], 1024, true)
		if err := k.FS.Write(ctx, f, p); err != nil {
			return err
		}
	}
	if err := k.FS.Fsync(ctx, f); err != nil {
		return err
	}
	k.FS.Close(ctx, f)
	w.genBlock[thread]++
	return nil
}

// sortRead streams a generated block back (sequential: readahead
// territory) and shuffles into the heap.
func (w *Spark) sortRead(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	b := w.sortBlock[thread]
	f, err := k.FS.Open(ctx, w.blockPath(thread, b))
	if err != nil {
		w.sortBlock[thread]++
		return nil
	}
	p := w.sortPage[thread]
	if err := k.FS.Read(ctx, f, p); err != nil {
		k.FS.Close(ctx, f)
		return err
	}
	// Shuffle: scatter into the heap.
	for i := 0; i < 4; i++ {
		k.AppAccess(ctx, w.heap[(int(p)*17+i*srcPrime(thread))%len(w.heap)], 512, true)
	}
	k.FS.Close(ctx, f)
	w.sortPage[thread]++
	if w.sortPage[thread] >= w.blockPages {
		w.sortPage[thread] = 0
		w.sortBlock[thread]++
	}
	return nil
}

// writeOutput appends sorted runs to per-thread output files, rotating
// per block.
func (w *Spark) writeOutput(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	if w.outFiles[thread] == nil {
		f, err := k.FS.Create(ctx, fmt.Sprintf("/hdfs/out-%02d-%04d", thread, w.outBlock[thread]))
		if err != nil {
			return err
		}
		w.outFiles[thread] = f
	}
	f := w.outFiles[thread]
	p := w.outPage[thread]
	k.AppAccess(ctx, w.heap[(int(p)*29+thread)%len(w.heap)], 1024, false)
	if err := k.FS.Write(ctx, f, p); err != nil {
		return err
	}
	w.outPage[thread]++
	if w.outPage[thread] >= w.blockPages {
		if err := k.FS.Fsync(ctx, f); err != nil {
			return err
		}
		k.FS.Close(ctx, f)
		w.outFiles[thread] = nil
		w.outPage[thread] = 0
		w.outBlock[thread]++
		if w.outBlock[thread] >= w.blocksPerThread() {
			// Wrap around: keep regenerating output (steady state).
			w.outBlock[thread] = 0
		}
	}
	return nil
}

func srcPrime(t int) int { return 31 + t*2 }
