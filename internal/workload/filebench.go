package workload

import (
	"fmt"

	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/sim"
)

// Filebench models Table 3's file-server profile: 16 threads issuing
// 50% sequential / 50% random 4 KB reads and writes against a shared
// 32 GB file set, fsyncing periodically. The paper measures Filebench
// spending 86% of its execution inside the OS — it is the purest
// kernel-object stressor in the suite.
type Filebench struct {
	cfg Config

	// Each thread owns filesPerThread files and actively works on one,
	// rotating periodically: open files are hot, closed ones cold.
	files     [][]*fs.File // [thread][slot]; nil when closed
	paths     [][]string
	active    []int
	opCount   []int
	filePages int64
	cursor    []int64 // per-thread sequential positions
	writes    []int
}

// filesPerThread in the fileset and rotateEvery ops per rotation.
const (
	filesPerThread = 4
	rotateEvery    = 20000
)

// NewFilebench builds the model.
func NewFilebench(cfg Config) *Filebench {
	cfg = cfg.withDefaults()
	w := &Filebench{cfg: cfg}
	// 16.3 GB footprint across the fileset.
	w.filePages = int64(cfg.pages(16300) / cfg.Threads / filesPerThread)
	return w
}

// Name implements Workload.
func (w *Filebench) Name() string { return "filebench" }

// Threads implements Workload.
func (w *Filebench) Threads() int { return w.cfg.Threads }

// Setup builds the fileset and pre-writes each file so reads have data
// to find. Each thread starts with its first file open.
func (w *Filebench) Setup(k *kernel.Kernel, r *sim.RNG) error {
	ctx := k.NewCtx(0)
	w.files = make([][]*fs.File, w.cfg.Threads)
	w.paths = make([][]string, w.cfg.Threads)
	w.active = make([]int, w.cfg.Threads)
	w.opCount = make([]int, w.cfg.Threads)
	w.cursor = make([]int64, w.cfg.Threads)
	w.writes = make([]int, w.cfg.Threads)
	prefill := w.filePages / 2
	for i := range w.files {
		w.files[i] = make([]*fs.File, filesPerThread)
		w.paths[i] = make([]string, filesPerThread)
		for j := 0; j < filesPerThread; j++ {
			path := fmt.Sprintf("/filebench/f%02d-%d", i, j)
			f, err := k.FS.Create(ctx, path)
			if err != nil {
				return err
			}
			w.paths[i][j] = path
			for p := int64(0); p < prefill; p++ {
				if err := k.FS.Write(ctx, f, p); err != nil {
					return err
				}
			}
			if err := k.FS.Fsync(ctx, f); err != nil {
				return err
			}
			if j == 0 {
				w.files[i][j] = f // stays open: the thread's hot file
			} else {
				k.FS.Close(ctx, f)
			}
		}
	}
	return nil
}

// Step runs one 4 KB operation on the thread's hot file, rotating to
// the next file in its set every rotateEvery ops (close + open: the
// lifecycle signal the KLOC abstraction keys on).
func (w *Filebench) Step(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	w.opCount[thread]++
	if w.opCount[thread]%rotateEvery == 0 {
		cur := w.active[thread]
		next := (cur + 1) % filesPerThread
		if w.files[thread][cur] != nil {
			if err := k.FS.Fsync(ctx, w.files[thread][cur]); err != nil {
				return err
			}
			k.FS.Close(ctx, w.files[thread][cur])
			w.files[thread][cur] = nil
		}
		nf, err := k.FS.Open(ctx, w.paths[thread][next])
		if err != nil {
			return err
		}
		w.files[thread][next] = nf
		w.active[thread] = next
		w.cursor[thread] = 0
	}
	f := w.files[thread][w.active[thread]]
	size := f.Inode.SizePages
	if size < 1 {
		size = 1
	}
	if r.Bool(0.67) { // read-heavy profile (Table 3)
		var idx int64
		if r.Bool(0.5) { // sequential
			w.cursor[thread] = (w.cursor[thread] + 1) % size
			idx = w.cursor[thread]
		} else { // random
			idx = r.Int63n(size)
		}
		return k.FS.Read(ctx, f, idx)
	}
	// write: half append, half overwrite
	var idx int64
	if r.Bool(0.5) && size < w.filePages {
		idx = size
	} else {
		idx = r.Int63n(size)
	}
	if err := k.FS.Write(ctx, f, idx); err != nil {
		return err
	}
	w.writes[thread]++
	if w.writes[thread]%1024 == 0 {
		return k.FS.Fsync(ctx, f)
	}
	return nil
}
