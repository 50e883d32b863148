package main

import (
	"os"
	"path/filepath"
	"reflect"
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

// TestRunOptaneWithNoL4 drives `-run -optane -scale 4194305 -policy
// autonuma -workload redis -quick` through the library call main makes.
// At that scale DefaultOptane sizes each socket's L4 cache at zero
// pages, which must miss every access, not panic; seven pages of PMEM
// per socket then run out, and the run reports ENOMEM.
func TestRunOptaneWithNoL4(t *testing.T) {
	opts := kloc.QuickOptions()
	_, err := kloc.Run(kloc.RunConfig{
		PolicyName: "autonuma", Workload: "redis",
		ScaleDiv: 4194305, Seed: opts.Seed, Duration: opts.Duration,
		Platform: kloc.Optane, MoveTaskAtFrac: 0.1,
	})
	if errno, ok := kloc.AsErrno(err); !ok || errno != kloc.ENOMEM {
		t.Fatalf("run at a zero-page L4: err = %v, want ENOMEM", err)
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

// TestCheckFlags: the flag defaults pass, and every value no run can
// use is a usage error before any run starts, never a silent fallback.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		scale      int
		durationMS int
		seed       uint64
		workloads  []string
		ok         bool
	}{
		{"defaults", defaultScale, 0, defaultSeed, nil, true},
		{"workload subset", defaultScale, 5, 7, []string{"rocksdb", "redis"}, true},
		{"negative scale", -3, 0, defaultSeed, nil, false},
		{"zero scale", 0, 0, defaultSeed, nil, false},
		{"negative duration", defaultScale, -1, defaultSeed, nil, false},
		{"zero seed", defaultScale, 0, 0, nil, false},
		{"unknown workload", defaultScale, 0, defaultSeed, []string{"rocksdb", "mysql"}, false},
	} {
		err := checkFlags(tc.scale, tc.durationMS, tc.seed, tc.workloads)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%d, %d, %d, %v) = %v, want ok=%v",
				tc.name, tc.scale, tc.durationMS, tc.seed, tc.workloads, err, tc.ok)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Fatalf("splitList(\"\") = %q, want nil", got)
	}
	if got := splitList(" rocksdb, ,redis,"); !reflect.DeepEqual(got, []string{"rocksdb", "redis"}) {
		t.Fatalf("splitList = %q", got)
	}
}
