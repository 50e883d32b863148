package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kloc"
)

func TestResolveExperimentsSingle(t *testing.T) {
	names, err := resolveExperiments("fig4")
	if err != nil || len(names) != 1 || names[0] != "fig4" {
		t.Fatalf("resolve fig4 = %v, %v", names, err)
	}
}

func TestResolveExperimentsAll(t *testing.T) {
	names, err := resolveExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(kloc.ExperimentNames()) {
		t.Fatalf("all = %d experiments, want %d", len(names), len(kloc.ExperimentNames()))
	}
}

// TestResolveExperimentsAllComposes pins the -exp list semantics: "all"
// expands in place and composes with the extras outside it, without
// duplicates.
func TestResolveExperimentsAllComposes(t *testing.T) {
	names, err := resolveExperiments("all,cluster,chaos")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kloc.ExperimentNames()) + 2; len(names) != want {
		t.Fatalf("all,cluster,chaos = %d experiments, want %d: %v", len(names), want, names)
	}
	if names[len(names)-2] != "cluster" || names[len(names)-1] != "chaos" {
		t.Fatalf("extras not appended after 'all': %v", names)
	}
	for _, n := range names[:len(names)-2] {
		if n == "cluster" || n == "chaos" {
			t.Fatalf("'all' must exclude the extras: %v", names)
		}
	}

	// Duplicates collapse, wherever they come from.
	names, err = resolveExperiments("fig4,all,fig4,chaos,chaos")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kloc.ExperimentNames()) + 1; len(names) != want {
		t.Fatalf("deduped list = %d experiments, want %d: %v", len(names), want, names)
	}
	if names[0] != "fig4" {
		t.Fatalf("explicit order not preserved: %v", names)
	}
}

func TestResolveExperimentsChaos(t *testing.T) {
	names, err := resolveExperiments("chaos")
	if err != nil || len(names) != 1 || names[0] != "chaos" {
		t.Fatalf("resolve chaos = %v, %v", names, err)
	}
}

func TestResolveExperimentsList(t *testing.T) {
	names, err := resolveExperiments("faults, pressure")
	if err != nil || len(names) != 2 || names[0] != "faults" || names[1] != "pressure" {
		t.Fatalf("resolve list = %v, %v", names, err)
	}
}

func TestResolveExperimentsUnknownListsValid(t *testing.T) {
	_, err := resolveExperiments("fig99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error must teach the valid set, including the newest entry.
	for _, want := range []string{"fig99", "fig4", "pressure", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if _, err := resolveExperiments(""); err == nil {
		t.Fatal("empty experiment accepted")
	}
	if _, err := resolveExperiments(" , "); err == nil {
		t.Fatal("blank list accepted")
	}
}

// TestChaosReplayRoundTrip drives the -exp chaos -replay path end to
// end: a campaign against a reintroduced defect emits a minimized
// artifact, the artifact round-trips through disk, and runChaosReplay
// (the -replay entry point) confirms the repro byte-identically.
func TestChaosReplayRoundTrip(t *testing.T) {
	_, arts, err := kloc.RunChaosCampaign(kloc.ChaosConfig{
		Target: kloc.ChaosTargetCluster, Schedules: 10, Seed: 42,
		MaxInjections: 4, ScaleDiv: 512,
		Duration: 4 * kloc.Millisecond, SettleBound: 30 * kloc.Millisecond,
		DeterminismEvery: -1, Bug: "hedge-slot-leak",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("bug-fixture campaign produced no repro artifact")
	}
	art := arts[0]
	if len(art.Schedule.Injections) > 3 {
		t.Fatalf("repro has %d injections, want <= 3", len(art.Schedule.Injections))
	}
	data, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), art.Filename())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runChaosReplay(path); err != nil {
		t.Fatalf("replay of fresh artifact failed: %v", err)
	}

	// A tampered fingerprint must fail the replay: the artifact pins the
	// violating trace, not just the violation.
	bad := *art
	bad.TraceFNV++
	data, err = bad.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runChaosReplay(path); err == nil {
		t.Fatal("replay accepted a tampered trace fingerprint")
	}
}

// TestSanitizedRunSmoke drives a -sanitize raw run through the same
// library call main makes and checks the report comes back clean.
func TestSanitizedRunSmoke(t *testing.T) {
	res, err := kloc.Run(kloc.RunConfig{
		PolicyName: "klocs", Workload: "rocksdb",
		Duration: 5 * kloc.Millisecond, Sanitize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sanitize == nil {
		t.Fatal("no sanitizer report on a -sanitize run")
	}
	if !res.Sanitize.Clean() {
		t.Fatalf("sanitizer dirty:\n%s", res.Sanitize)
	}
	if !strings.Contains(res.Sanitize.String(), "sanitizer:") {
		t.Fatalf("report rendering: %q", res.Sanitize.String())
	}
}

// TestExperimentSmoke drives one real experiment end to end through
// the same entry point main uses, at a tiny scale.
func TestExperimentSmoke(t *testing.T) {
	opts := kloc.Options{ScaleDiv: 256, Duration: 5 * kloc.Millisecond, Seed: 42,
		Workloads: []string{"rocksdb"}}
	tbl, err := kloc.Experiment("fig2d", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "rocksdb") {
		t.Fatalf("table missing workload row:\n%s", tbl)
	}
}

func TestResolveExperimentsPerf(t *testing.T) {
	names, err := resolveExperiments("perf")
	if err != nil || len(names) != 1 || names[0] != "perf" {
		t.Fatalf("resolve perf = %v, %v", names, err)
	}
	// perf is an extra: 'all' must not pull it in.
	names, err = resolveExperiments("all,perf")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kloc.ExperimentNames()) + 1; len(names) != want {
		t.Fatalf("all,perf = %d experiments, want %d: %v", len(names), want, names)
	}
	if names[len(names)-1] != "perf" {
		t.Fatalf("perf not appended after 'all': %v", names)
	}
}

// TestPerfBenchSmoke drives -exp perf end to end through the same
// entry point main uses: quick sweep, report written, schema intact,
// wall metrics kept out of the artifact by default.
func TestPerfBenchSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_perf.json")
	opts := kloc.Options{Seed: 42}
	if err := runPerfBench(opts, true, false, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep kloc.PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if rep.SchemaVersion != kloc.PerfSchemaVersion {
		t.Fatalf("schema %d, want %d", rep.SchemaVersion, kloc.PerfSchemaVersion)
	}
	if !rep.Quick || rep.Seed != 42 {
		t.Fatalf("config not reflected: quick=%v seed=%d", rep.Quick, rep.Seed)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows in artifact")
	}
	for _, row := range rep.Rows {
		if row.Wall != nil {
			t.Fatalf("wall metrics leaked into the default artifact (%s)", row.Stage)
		}
	}
}
