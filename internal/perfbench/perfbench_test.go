package perfbench

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// fakeClock returns a deterministic monotonic clock advancing by step
// nanoseconds per reading.
func fakeClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

// cachedSweep runs one quick sweep on first use and hands every later
// caller the same report: a sweep costs tens of seconds, and several
// tests assert different properties of identically configured sweeps.
// Callers must treat the report as read-only.
type cachedSweep struct {
	once sync.Once
	rep  *Report
	err  error
}

func (c *cachedSweep) get(t *testing.T, cfg func() Config) *Report {
	t.Helper()
	c.once.Do(func() { _, c.rep, c.err = Run(cfg()) })
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.rep
}

var (
	plainSweep cachedSweep
	wallSweep  cachedSweep
)

// plainReport is the clockless quick sweep.
func plainReport(t *testing.T) *Report {
	return plainSweep.get(t, func() Config { return Config{Seed: 42, Quick: true} })
}

// wallReport is the quick sweep under a constant-step fake clock with
// IncludeWall set.
func wallReport(t *testing.T) *Report {
	return wallSweep.get(t, func() Config {
		return Config{Seed: 42, Quick: true, Now: fakeClock(5), IncludeWall: true}
	})
}

// TestReportIsByteIdentical: two same-seed quick sweeps must serialize
// to the same bytes, even when their injected wall clocks disagree —
// machine-dependent numbers stay out of the report unless IncludeWall
// is set. This is the property the CI perf-smoke job pins with cmp.
func TestReportIsByteIdentical(t *testing.T) {
	run := func(step int64) []byte {
		_, rep, err := Run(Config{Seed: 42, Quick: true, Now: fakeClock(step)})
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := run(10)
	b := run(1000) // a very different "machine"
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between same-seed sweeps:\n%s\n----\n%s", a, b)
	}
}

// TestReportSchemaRoundTrip: BENCH_perf.json must parse back into the
// Report shape with the schema version, full variant catalog, and one
// row per (stage, variant).
func TestReportSchemaRoundTrip(t *testing.T) {
	data, err := plainReport(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d, want %d", got.SchemaVersion, SchemaVersion)
	}
	if got.Experiment != "perf" {
		t.Fatalf("experiment %q, want perf", got.Experiment)
	}
	if len(got.Variants) != len(Variants()) {
		t.Fatalf("%d variants, want %d", len(got.Variants), len(Variants()))
	}
	if want := len(got.Variants) * len(got.Stages); len(got.Rows) != want {
		t.Fatalf("%d rows, want %d (stages x variants)", len(got.Rows), want)
	}
	for _, row := range got.Rows {
		if row.Events == 0 {
			t.Fatalf("row %s/%s reports zero events", row.Stage, row.Variant)
		}
		if row.Wall != nil {
			t.Fatalf("row %s/%s leaked wall metrics without IncludeWall", row.Stage, row.Variant)
		}
	}
	if got.SpeedupVsBaseline != nil {
		t.Fatal("speedups leaked without IncludeWall")
	}
}

// TestIncludeWallPublishesMetrics: opting in puts wall rows and the
// speedup map into the JSON.
func TestIncludeWallPublishesMetrics(t *testing.T) {
	rep := wallReport(t)
	for _, row := range rep.Rows {
		if row.Wall == nil {
			t.Fatalf("row %s/%s missing wall metrics under IncludeWall", row.Stage, row.Variant)
		}
		if row.Wall.EventsPerSec <= 0 {
			t.Fatalf("row %s/%s: non-positive events/sec", row.Stage, row.Variant)
		}
	}
	if len(rep.SpeedupVsBaseline) == 0 {
		t.Fatal("no speedups computed under IncludeWall")
	}
	if err := rep.SanityCheck(); err != nil {
		// A constant-step fake clock times every block identically, so
		// full >= baseline trivially holds; failure means bookkeeping
		// broke, not noise.
		t.Fatal(err)
	}
}

// TestLaneSweep: the shard-pool rows cover every worker count with
// identical deterministic results (the sweep itself errors on a
// digest mismatch; this pins the shape), wall sections under
// IncludeWall carrying the host CPU count, and — under a
// constant-step fake clock, where every fleet times identically — a
// measured speedup of exactly 1.
func TestLaneSweep(t *testing.T) {
	rep := wallReport(t)
	if len(rep.LaneSweep) != len(laneWorkerCounts) {
		t.Fatalf("%d lane rows, want %d", len(rep.LaneSweep), len(laneWorkerCounts))
	}
	first := rep.LaneSweep[0]
	if first.Ops == 0 || first.EventsFired == 0 {
		t.Fatalf("lane sweep did no work: %+v", first)
	}
	for i, row := range rep.LaneSweep {
		if row.Workers != laneWorkerCounts[i] {
			t.Fatalf("row %d: workers %d, want %d", i, row.Workers, laneWorkerCounts[i])
		}
		if row.Ops != first.Ops || row.EventsFired != first.EventsFired ||
			row.ShardDigest != first.ShardDigest {
			t.Fatalf("workers=%d row diverges from workers=%d: %+v vs %+v",
				row.Workers, first.Workers, row, first)
		}
		if row.Wall == nil {
			t.Fatalf("workers=%d: missing wall section under IncludeWall", row.Workers)
		}
		if row.Wall.HostCPUs < 1 {
			t.Fatalf("workers=%d: host CPU count %d", row.Workers, row.Wall.HostCPUs)
		}
		if row.Wall.SpeedupVsSerial != 1 {
			t.Fatalf("workers=%d: wall speedup %.2f, want exactly 1 under a constant-step clock",
				row.Workers, row.Wall.SpeedupVsSerial)
		}
	}
	if got := len(rep.LaneLines()); got != len(rep.LaneSweep) {
		t.Fatalf("%d lane lines, want %d", got, len(rep.LaneSweep))
	}
}

// TestSanityCheckNeedsClock: without an injected clock there is
// nothing to check, and saying so beats vacuously passing.
func TestSanityCheckNeedsClock(t *testing.T) {
	if err := plainReport(t).SanityCheck(); err == nil {
		t.Fatal("SanityCheck passed with no wall metrics")
	}
}

// TestVariantCatalog: the sweep must cover baseline, each optimization
// in isolation, and the full default stack (>= 4 variants per the
// experiment contract), with baseline truly legacy and full truly
// default.
func TestVariantCatalog(t *testing.T) {
	vs := Variants()
	if len(vs) < 4 {
		t.Fatalf("only %d variants", len(vs))
	}
	byName := map[string]Variant{}
	for _, v := range vs {
		byName[v.Name] = v
		if v.ModeString != v.Mode.String() {
			t.Fatalf("variant %s: mode string %q does not render its mode %q",
				v.Name, v.ModeString, v.Mode.String())
		}
	}
	for _, want := range []string{"baseline", "batched", "pooled", "indexed", "full"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("variant %s missing from catalog", want)
		}
	}
	base := byName["baseline"].Mode
	if base.Batched() || base.Pooled() || base.Indexed() {
		t.Fatal("baseline variant enables an optimization")
	}
	full := byName["full"].Mode
	if !full.Batched() || !full.Pooled() || !full.Indexed() {
		t.Fatal("full variant misses an optimization")
	}
}
