package workload

import (
	"fmt"

	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/netsim"
	"kloc/internal/sim"
)

// Redis models the in-memory store of Table 3: 16 instances serving 16
// clients (4 M keys, 75% SET / 25% GET, 14 GB footprint) that
// periodically checkpoint to a large file on disk. The kernel traffic
// mixes ingress/egress socket buffers with page-cache churn from
// checkpoints — the combination Fig 2a shows and the reason the Naive
// baseline loses 2.2x (§7.1).
type Redis struct {
	cfg Config

	store   []*memsim.Frame // keyspace heap
	sockets []*netsim.Socket
	zipf    *sim.Zipf

	ops       []int // per-thread op counters for checkpoint cadence
	ckptEvery int
	ckptPages int64
	ckptSeq   []int
}

// NewRedis builds the model.
func NewRedis(cfg Config) *Redis {
	cfg = cfg.withDefaults()
	return &Redis{
		cfg:       cfg,
		ckptEvery: cfg.dataScale(2000),
		ckptPages: int64(cfg.dataScale(256)),
	}
}

// Name implements Workload.
func (w *Redis) Name() string { return "redis" }

// Threads implements Workload.
func (w *Redis) Threads() int { return w.cfg.Threads }

// DatasetPages implements Sized: the keyspace store plus one
// checkpoint file per instance.
func (w *Redis) DatasetPages() int {
	return w.cfg.pages(12000) + w.cfg.Threads*int(w.ckptPages)
}

// Setup allocates the keyspace and opens one server socket per
// instance.
func (w *Redis) Setup(k *kernel.Kernel, r *sim.RNG) error {
	ctx := k.NewCtx(0)
	var err error
	// 14 GB footprint, dominated by the in-memory store.
	w.store, err = w.cfg.allocHeap(k, ctx, w.cfg.pages(12000))
	if err != nil {
		return fmt.Errorf("redis: store: %w", err)
	}
	w.zipf = sim.NewZipf(r.Fork(), 1.05, 4_000_000)
	w.sockets = make([]*netsim.Socket, w.cfg.Threads)
	w.ops = make([]int, w.cfg.Threads)
	w.ckptSeq = make([]int, w.cfg.Threads)
	for i := range w.sockets {
		if w.sockets[i], err = k.Net.SocketCreate(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Step serves one client request on the thread's instance.
func (w *Redis) Step(k *kernel.Kernel, ctx *kstate.Ctx, thread int, r *sim.RNG) error {
	s := w.sockets[thread]
	// Client request arrives (ingress), server receives and parses.
	set := r.Bool(0.75)
	reqBytes := 64
	if set {
		reqBytes = 2048 // SET carries the value
	}
	if err := k.Net.Deliver(ctx, s, reqBytes); err != nil {
		return err
	}
	if _, err := k.Net.Recv(ctx, s, 1<<16); err != nil {
		return err
	}
	key := w.zipf.Next()
	frame := w.store[key%len(w.store)]
	// Hash-table walk + value access.
	k.AppAccess(ctx, w.store[(key*31)%len(w.store)], 64, false)
	k.AppAccess(ctx, frame, 2048, set)
	// Reply: GET returns the value.
	replyBytes := 32
	if !set {
		replyBytes = 2048
	}
	if err := k.Net.Send(ctx, s, replyBytes); err != nil {
		return err
	}
	w.ops[thread]++
	if w.ops[thread]%w.ckptEvery == 0 {
		return w.checkpoint(k, ctx, thread)
	}
	return nil
}

// checkpoint models BGSAVE: the instance serializes a slab of the
// keyspace into a fresh dump file, fsyncs, closes, and unlinks the
// previous generation — cold page cache en masse.
func (w *Redis) checkpoint(k *kernel.Kernel, ctx *kstate.Ctx, thread int) error {
	seq := w.ckptSeq[thread]
	w.ckptSeq[thread]++
	path := fmt.Sprintf("/redis/dump-%d-%d.rdb", thread, seq)
	f, err := k.FS.Create(ctx, path)
	if err != nil {
		return err
	}
	for i := int64(0); i < w.ckptPages; i++ {
		// Serialization reads the store, then writes the dump page.
		k.AppAccess(ctx, w.store[(int(i)*7+thread)%len(w.store)], 4096, false)
		if err := k.FS.Write(ctx, f, i); err != nil {
			return err
		}
	}
	if err := k.FS.Fsync(ctx, f); err != nil {
		return err
	}
	k.FS.Close(ctx, f)
	if seq > 0 {
		prev := fmt.Sprintf("/redis/dump-%d-%d.rdb", thread, seq-1)
		if err := k.FS.Unlink(ctx, prev); err != nil {
			return err
		}
	}
	return nil
}
