package harness

import (
	"slices"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/memsim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// ioAttempts is the attempt count a block dispatch reports when it
// exhausted blockdev's retry budget: the first try and 3 retries.
const ioAttempts = 4

// TestWritebackIOFailuresAreClean is the error-path gate: one table
// over every kernel-level fault point. Each row is a quick klocs run
// in which one point fails half its consults, with the sanitizer and
// the crash-replay oracle armed. A leak or a double free on an error
// path is a sanitizer finding, and an error that lost its errno on the
// way out aborts the run, since a fault-armed Run fails on any step
// error that carries none.
//
// A squeezed run is under memory pressure, as the pressure sweep's
// tightest row: only there do reads miss the page cache often enough
// for page fills to fail past their retries, and only there is
// pressure.reclaim consulted. A row is skipped where its run never
// consults the point, because a rule there could inject nothing; every
// other row must inject.
func TestWritebackIOFailuresAreClean(t *testing.T) {
	runs := []struct {
		wl       string
		squeezed bool
		skip     []fault.Point
	}{
		{"cassandra", false, []fault.Point{fault.Reclaim}},
		{"spark", false, []fault.Point{fault.RxDrop, fault.Reclaim}},
		{"rocksdb", false, []fault.Point{fault.RxDrop, fault.Reclaim}},
		{"redis", false, []fault.Point{fault.BlockIO, fault.Reclaim}},
		{"rocksdb", true, []fault.Point{fault.RxDrop}},
		{"redis", true, []fault.Point{fault.BlockIO}},
	}
	var writebackFails, fillFails int
	for _, r := range runs {
		for _, pt := range fault.Points() {
			if pt == fault.MachineCrash || pt == fault.MachineDegrade || slices.Contains(r.skip, pt) {
				continue // a cluster point, or one this run never consults
			}
			name := r.wl
			cfg := quickRun(RunConfig{PolicyName: "klocs", Workload: r.wl})
			if r.squeezed {
				name += "-squeezed"
				cfg = squeezed(t, r.wl)
			}
			t.Run(name+"/"+string(pt), func(t *testing.T) {
				cfg.Sanitize, cfg.CrashReplay = true, true
				cfg.Fault = &fault.Config{Seed: 42, Rules: map[fault.Point]fault.Rule{pt: {Prob: 0.5}}}
				if pt == fault.BlockIO {
					cfg.Trace = &trace.Config{Events: []string{string(trace.AllocSlab), string(trace.BlockDispatch)}}
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.FaultsInjected == 0 {
					t.Fatal("the point never injected")
				}
				if !res.Sanitize.Clean() {
					t.Fatalf("sanitizer dirty:\n%s", res.Sanitize)
				}
				if res.CrashViolation != "" {
					t.Fatalf("crash replay: %s", res.CrashViolation)
				}
				if res.Trace != nil {
					if res.Trace.Dropped() != 0 {
						t.Fatalf("trace ring dropped %d events", res.Trace.Dropped())
					}
					wb, fill := ioFailures(res.Trace)
					writebackFails += wb
					fillFails += fill
				}
			})
		}
	}
	if writebackFails == 0 || fillFails == 0 {
		t.Errorf("block requests failed past their retries: %d writeback runs and %d page fills, want some of each",
			writebackFails, fillFails)
	}
}

// squeezed is a quick klocs run of wl with the fast tier holding half
// the dataset and total memory 33/32 of it, and with watermarks and
// kswapd armed: the pressure sweep's tightest row.
func squeezed(t *testing.T, wl string) RunConfig {
	t.Helper()
	probe, err := workload.ByName(wl, workload.Config{ScaleDiv: 256})
	if err != nil {
		t.Fatal(err)
	}
	dataset := probe.(workload.Sized).DatasetPages()
	cfg := pressured(wl)
	cfg.TwoTier = memsim.DefaultTwoTier(256)
	cfg.TwoTier.FastPages = dataset / 2
	cfg.TwoTier.SlowPages = dataset + dataset/32 - cfg.TwoTier.FastPages
	return cfg
}

// ioFailures counts the block requests in a run's trace that failed
// past their retries: writeback runs, each of which allocates its
// blk-mq request and then dispatches its write, and page fills, the
// only reads dispatched while faults are armed.
func ioFailures(tr *trace.Tracer) (writeback, fill int) {
	prev := trace.Event{}
	for _, e := range tr.Events() {
		if e.Name == trace.BlockDispatch && e.Obj == ioAttempts {
			switch {
			case e.Class == "read":
				fill++
			case prev.Name == trace.AllocSlab && prev.Class == kobj.BlkMQ.String():
				writeback++
			}
		}
		prev = e
	}
	return writeback, fill
}
