package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	size    size
	// root is the repository root (BENCH_cluster.json pins fleet).
	root string
	// spans is where the traced pass writes its span file.
	spans string
}

// report is one run's outcome. Its JSON form is the last line of the
// command's standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// speed is the host's median speed over the timed executions, as a
	// share of the reference host's (untraced pass only).
	speed float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record counts one execution and reports its failure, if any.
func (r *report) record(w io.Writer, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(w, "execution %d failed: %v\n", r.Attempted, err)
	}
}

// set fills the metrics of catalog from vals.
func (r *report) set(catalog []metric, vals map[string]float64) {
	r.Metrics = make(map[string]value, len(catalog))
	for _, m := range catalog {
		r.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
}

// cost is the host's cost of one execution.
type cost struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru, err
}

// cpuSeconds is the process's user+sys time so far, every thread's.
func cpuSeconds() (float64, error) {
	ru, err := rusage()
	if err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// measure runs f and returns its host cost with f's error.
func measure(f func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return cost{}, err
	}
	t0 := now()
	ferr := f()
	wall := now().Sub(t0)
	cpu1, err := cpuSeconds()
	if err != nil {
		return cost{}, err
	}
	runtime.ReadMemStats(&m1)
	return cost{
		wall:       wall.Seconds(),
		cpu:        cpu1 - cpu0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}, ferr
}

// Set-up is timed at least minSetups times, and more while the total
// stays under setupSeconds, so that short set-ups get enough
// repetitions for a steady median.
const (
	minSetups    = 5
	maxSetups    = 50
	setupSeconds = 1.5
)

// warmUp runs the discarded execution that lets caches fill and lazy
// initialisation finish before anything is timed.
func warmUp(w *workload, c config) error {
	if _, err := w.exec(c.size.warm(), c.seed, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// untraced is the end-to-end pass. After the warm-up it times set-up
// alone, then runs closed-loop executions (each starts when the last
// one ends) while the next is expected to finish inside c.seconds,
// and reports medians of host-normalized times (see hostSpeed). Every
// execution starts from a collected heap, as a fresh process would.
func untraced(w *workload, c config, logw io.Writer) (*report, error) {
	chk, err := newChecker(w, c.size, c.seed, c.root)
	if err != nil {
		return nil, err
	}
	if err := warmUp(w, c); err != nil {
		return nil, err
	}
	runtime.GC()
	before := hostSpeed()
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupSeconds && len(setups) < maxSetups); {
		runtime.GC()
		s, err := measure(func() error { return w.setup(c.size, c.seed) })
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s.wall)
		spent += s.wall
	}
	runtime.GC()
	after := hostSpeed()
	setup := median(setups) * normalize(before, after)

	rep := &report{Correct: true}
	var wall, cpu, alloc, mallocs, speeds []float64
	start := now()
	for {
		before = after
		var out *outcome
		s, err := measure(func() (err error) {
			out, err = w.exec(c.size, c.seed, nil)
			return err
		})
		if err == nil {
			err = chk.check(out)
		}
		rep.record(logw, err)
		runtime.GC()
		after = hostSpeed()
		k := normalize(before, after)
		wall = append(wall, s.wall*k)
		cpu = append(cpu, s.cpu*k)
		alloc = append(alloc, float64(s.allocBytes)/1e6)
		mallocs = append(mallocs, float64(s.mallocs)/1e6)
		speeds = append(speeds, 1/k)
		n := float64(len(wall))
		if now().Sub(start).Seconds()*(n+1)/n > c.seconds {
			break
		}
	}
	ru, err := rusage()
	if err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.speed = median(speeds)
	rep.set(endToEnd, map[string]float64{
		"run_s":         median(wall),
		"cpu_s":         median(cpu),
		"setup_s":       setup,
		"peak_rss_mb":   float64(ru.Maxrss) / 1024, // Linux reports KiB
		"alloc_mb":      median(alloc),
		"heap_allocs_m": median(mallocs),
	})
	return rep, nil
}

// hashBuf is hostSpeed's input, small enough to stay in the core's own
// cache.
var hashBuf = make([]byte, 64<<10)

// hashSink keeps the calibration's result alive.
var hashSink byte

// Times are normalized to a reference host on which hashRounds rounds
// of SHA-256 over hashBuf take refHashSeconds (about 1.3 GB/s: the
// 2-vCPU Xeon VM the first table in README.md was measured on).
const (
	hashRounds     = 600
	refHashSeconds = 0.03
)

// hostSpeed times a fixed compute task. On a shared host the speed of
// the simulator drifts by tens of percent over minutes as neighbours
// come and go, and this reading drifts with it, so times scaled by it
// (normalize) vary far less from run to run than raw ones. The task's
// code never changes with the simulator's, so the scaling cannot hide
// a change in the simulator's own speed.
func hostSpeed() float64 {
	t0 := now()
	for i := 0; i < hashRounds; i++ {
		s := sha256.Sum256(hashBuf)
		hashSink ^= s[0]
	}
	return now().Sub(t0).Seconds()
}

// normalize is the factor that turns a time measured between two
// hostSpeed readings into seconds on the reference host.
func normalize(before, after float64) float64 {
	return refHashSeconds / ((before + after) / 2)
}

// The traced pass samples the CPU at profileHz, about the most that a
// kernel with a 250 Hz tick delivers, until its traced executions have
// used profileCPUSeconds of CPU time: some 1,600 samples per workload.
const (
	profileHz         = 250
	profileCPUSeconds = 6.4
)

// traced is the per-layer pass, never used for end-to-end numbers.
// After the warm-up, one untraced execution is the reference; then
// traced executions run under a CPU profile with the policy decorator
// and spans, and each must reproduce the reference's output exactly.
// The profile is folded by layer, the counters come from the first
// traced execution's output, and the spans are written at the end.
func traced(w *workload, c config, logw io.Writer) (*report, error) {
	chk, err := newChecker(w, c.size, c.seed, c.root)
	if err != nil {
		return nil, err
	}
	if err := warmUp(w, c); err != nil {
		return nil, err
	}
	rep := &report{Correct: true}
	runtime.GC()
	var ref *outcome
	base, err := measure(func() (err error) {
		ref, err = w.exec(c.size, c.seed, nil)
		return err
	})
	if err == nil {
		err = chk.check(ref)
	}
	rep.record(logw, err)

	log := &spanLog{origin: now()}
	var prof bytes.Buffer
	// StartCPUProfile sets 100 Hz, too coarse for runs of a few seconds.
	// A rate set first is kept (the runtime notes the refused second
	// setting on standard error).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	var first *probe
	var firstOut *outcome
	var walls []float64
	for {
		prb := &probe{log: log}
		t0 := now()
		out, err := w.exec(c.size, c.seed, prb)
		t1 := now()
		log.add(fmt.Sprintf("execution %d", len(walls)+1), "execution", t0, t1)
		if prb.setupEnd.IsZero() {
			log.add("run", "phase", t0, t1)
		} else {
			log.add("setup", "phase", t0, prb.setupEnd)
			log.add("run", "phase", prb.setupEnd, t1)
		}
		if err == nil {
			err = chk.check(out)
		}
		rep.record(logw, err)
		walls = append(walls, t1.Sub(t0).Seconds())
		if first == nil {
			first, firstOut = prb, out
		}
		cpu, err := cpuSeconds()
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		if cpu-cpu0 >= profileCPUSeconds || t1.Sub(log.origin).Seconds() > c.seconds {
			break
		}
	}
	pprof.StopCPUProfile()
	log.add(w.name, "workload", log.origin, now())

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	by, total := fold(stacks)
	vals := counters(first, firstOut)
	for _, l := range layers {
		vals[l+".cpu_share"] = 100 * ratio(float64(by[l]), float64(total))
	}
	vals["profile.samples"] = float64(total)
	vals["gc.cycles"] = float64(base.gcCycles)
	vals["gc.pause_ms"] = float64(base.gcPauseNs) / 1e6
	vals["bench.trace_overhead"] = ratio(median(walls), base.wall)
	if ref != nil && ref.res != nil {
		vals["harness.host_us_per_op"] = ratio(base.wall*1e6, float64(ref.res.Ops))
	}
	rep.set(perLayer, vals)

	path := filepath.Join(c.spans, fmt.Sprintf("%s-seed%d.json", w.name, c.seed))
	if err := log.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "spans written to %s (open in ui.perfetto.dev)\n", path)
	return rep, nil
}

// counters reads the layers' deterministic work counters from one
// traced execution: the policy decorator's, and the run's output.
func counters(prb *probe, out *outcome) map[string]float64 {
	v := make(map[string]float64)
	if prb != nil {
		v["policy.tick_calls"] = float64(prb.ticks)
		v["policy.tick_s"] = prb.tickTime.Seconds()
		v["policy.place_calls"] = float64(prb.places)
		v["policy.notify_calls"] = float64(prb.notifies)
	}
	if out == nil {
		return v
	}
	if r := out.res; r != nil {
		v["kloc.fast_path_hit_rate"] = r.FastPathHitRate
		v["kloc.metadata_bytes"] = float64(r.KlocMetadataBytes)
		v["memsim.kernel_refs"] = float64(r.KernRefs)
		v["memsim.app_refs"] = float64(r.AppRefs)
		v["memsim.migrated_pages"] = float64(r.Mem.MigratedPages)
		pm := r.Perf.Mem
		v["memsim.frame_reuse_ratio"] = ratio(float64(pm.FramesReused), float64(pm.FramesFresh+pm.FramesReused))
		v["percpu.commit_ratio"] = ratio(float64(pm.AccCommits), float64(pm.AccAdds))
		f := r.FS
		v["fs.ops"] = float64(f.Creates + f.Opens + f.Closes + f.Unlinks + f.Renames + f.Truncates +
			f.Reads + f.Writes + f.Syncs)
		v["fs.cache_hit_rate"] = ratio(float64(f.CacheHits), float64(f.CacheHits+f.CacheMisses))
		v["fs.dentry_hit_rate"] = ratio(float64(f.DentryHits), float64(f.DentryHits+f.DentryMisses))
		v["fs.journal_commits"] = float64(f.JournalCommits)
		v["fs.readahead_hit_rate"] = ratio(float64(r.ReadaheadHits), float64(r.ReadaheadIssued))
		v["blockdev.busy_ms_virtual"] = r.DevBusy.Seconds() * 1e3
		v["blockdev.io_retries"] = float64(r.IORetries)
		n := r.Net
		v["netsim.packets"] = float64(n.PacketsTx + n.PacketsRx)
		v["netsim.driver_demux_ratio"] = ratio(float64(n.DriverDemux), float64(n.DriverDemux+n.TCPDemux))
		v["harness.ops"] = float64(r.Ops)
	}
	if f := out.fleet; f != nil {
		var arrivals, completed, wasted, retries, hedges uint64
		for _, row := range f.Rows {
			arrivals += row.Arrivals
			completed += row.Completed
			wasted += row.Wasted
			retries += row.Retries
			hedges += row.Hedges
		}
		v["cluster.requests"] = float64(arrivals)
		v["cluster.goodput_ratio"] = ratio(float64(completed), float64(arrivals))
		// Wasted services are ones whose client had stopped waiting.
		v["cluster.wasted_ratio"] = ratio(float64(wasted), float64(completed+wasted))
		v["cluster.retries"] = float64(retries)
		v["cluster.hedges"] = float64(hedges)
	}
	if s := out.camp; s != nil {
		v["chaos.schedules"] = float64(s.Schedules)
		v["chaos.injections"] = float64(s.Injections)
		v["chaos.determinism_runs"] = float64(s.DeterminismRuns)
	}
	return v
}
