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
// to the same bytes, even when one runs with an injected wall clock and
// the other without — machine-dependent numbers stay out of the report
// unless IncludeWall is set. This is the property the CI perf-smoke job
// pins with cmp.
func TestReportIsByteIdentical(t *testing.T) {
	_, clocked, err := Run(Config{Seed: 42, Quick: true, Now: fakeClock(1000)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plainReport(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := clocked.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between same-seed sweeps:\n%s\n----\n%s", a, b)
	}
}

// TestReportSchemaRoundTrip: BENCH_perf.json must parse back into the
// Report shape with the schema version and one row per stage.
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
	if len(got.Rows) != len(got.Stages) {
		t.Fatalf("%d rows, want one per stage (%d)", len(got.Rows), len(got.Stages))
	}
	for i, row := range got.Rows {
		if row.Stage != got.Stages[i] {
			t.Fatalf("row %d is stage %s, want %s", i, row.Stage, got.Stages[i])
		}
		if row.Events == 0 {
			t.Fatalf("row %s reports zero events", row.Stage)
		}
		if row.Wall != nil {
			t.Fatalf("row %s leaked wall metrics without IncludeWall", row.Stage)
		}
	}
}

// TestIncludeWallPublishesMetrics: opting in puts wall rows into the
// JSON.
func TestIncludeWallPublishesMetrics(t *testing.T) {
	for _, row := range wallReport(t).Rows {
		if row.Wall == nil {
			t.Fatalf("row %s missing wall metrics under IncludeWall", row.Stage)
		}
		if row.Wall.EventsPerSec <= 0 {
			t.Fatalf("row %s: non-positive events/sec", row.Stage)
		}
	}
}

// allocsPerOpCeiling caps each stage's heap allocations per event in
// the quick sweep. Measured quick-sweep values on a 2-CPU host (the
// same under -race at GOMAXPROCS=1): trace-burst 0.0004,
// alloc-churn 0.0178, knode-index 0.0042, end2end 30.61. Micro stages
// get +0.01 absolute slack, rounded up; end2end gets +10%.
var allocsPerOpCeiling = map[string]float64{
	"trace-burst": 0.011,
	"alloc-churn": 0.028,
	"knode-index": 0.015,
	"end2end":     33.7,
}

// TestAllocsPerOpCeilings is the sweep's regression gate. Allocation
// counts do not depend on machine speed, so unlike events/sec they can
// gate CI without flaking: a change that puts the heap back on a hot
// path fails here.
func TestAllocsPerOpCeilings(t *testing.T) {
	rep := wallReport(t)
	if len(rep.Rows) != len(allocsPerOpCeiling) {
		t.Fatalf("%d stages, %d ceilings: every stage needs one", len(rep.Rows), len(allocsPerOpCeiling))
	}
	for _, row := range rep.Rows {
		ceiling, ok := allocsPerOpCeiling[row.Stage]
		if !ok {
			t.Fatalf("stage %s has no allocs/op ceiling", row.Stage)
		}
		if got := row.Wall.AllocsPerOp; got > ceiling {
			t.Errorf("stage %s: %.4f allocs/op, ceiling %.4f", row.Stage, got, ceiling)
		}
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
