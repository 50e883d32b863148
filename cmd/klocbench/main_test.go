package main

import (
	"flag"
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

// TestCheckFlags: the documented command lines pass, and every command
// line no run can honor is a usage error before any run starts, never a
// silent fallback: a value no run can use, trace patterns that select
// no event, or a flag the selected mode never reads.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		// want is a substring the error must contain; empty means the
		// command line is accepted.
		want string
	}{
		{"defaults", []string{"-exp", "fig4"}, ""},
		{"workload subset", []string{"-exp", "fig2d", "-duration-ms", "5", "-seed", "7", "-workloads", "rocksdb,redis"}, ""},
		{"eval", []string{"-exp", "all", "-quick"}, ""},
		{"cluster sweep", []string{"-exp", "cluster", "-quick", "-bench-out", "BENCH_cluster.json"}, ""},
		{"chaos campaign", []string{"-exp", "chaos", "-quick", "-chaos-out", "BENCH_chaos.json"}, ""},
		{"chaos replay", []string{"-exp", "chaos", "-replay", "CHAOS_repro_x.json"}, ""},
		{"all composes", []string{"-exp", "all,cluster,chaos", "-quick", "-workloads", "rocksdb", "-bench-out", "b.json", "-chaos-out", "c.json"}, ""},
		{"ablations on redis", []string{"-exp", "ablations", "-quick", "-workloads", "redis,spark"}, ""},
		{"traced run", []string{"-run", "-policy", "klocs", "-workload", "rocksdb", "-quick", "-trace", "run.json", "-trace-events", "alloc.*,memsim.migrate"}, ""},
		{"sanitized optane run", []string{"-run", "-quick", "-optane", "-sanitize", "-scale", "128", "-seed", "7"}, ""},

		{"stray argument", []string{"-exp", "fig4", "extra"}, "unexpected arguments"},
		{"nothing to do", []string{"-quick"}, "nothing to do"},
		{"unknown experiment", []string{"-exp", "fig99"}, "fig99"},
		{"negative scale", []string{"-exp", "fig4", "-scale", "-3"}, "-scale"},
		{"zero scale", []string{"-exp", "fig4", "-scale", "0"}, "-scale"},
		{"negative duration", []string{"-exp", "fig4", "-duration-ms", "-1"}, "-duration-ms"},
		{"zero seed", []string{"-exp", "fig4", "-seed", "0"}, "-seed"},
		{"unknown workload", []string{"-exp", "fig4", "-workloads", "rocksdb,mysql"}, "mysql"},
		{"fig5b without rocksdb", []string{"-exp", "fig5b", "-quick", "-workloads", "redis"}, "-workloads: fig5b runs only rocksdb"},
		{"prefetch without rocksdb", []string{"-exp", "prefetch", "-workloads", "redis,spark"}, "-workloads: prefetch runs only rocksdb"},
		{"ablations without its workloads", []string{"-exp", "ablations", "-workloads", "filebench"}, "-workloads: ablations runs only rocksdb, redis"},
		{"all without rocksdb", []string{"-exp", "all", "-quick", "-workloads", "redis"}, "-workloads: fig5b runs only rocksdb"},

		{"unknown trace event", []string{"-run", "-quick", "-trace", "t.txt", "-trace-events", "nosuch.event"}, "nosuch.event"},
		{"malformed trace pattern", []string{"-run", "-quick", "-trace", "t.txt", "-trace-events", "["}, "-trace-events"},

		{"-policy with -exp", []string{"-exp", "fig2d", "-quick", "-workloads", "rocksdb", "-policy", "bogus"}, "-policy is read only by -run, not by -exp <paper experiment>"},
		{"-optane with -exp", []string{"-exp", "fig2d", "-quick", "-workloads", "rocksdb", "-optane"}, "-optane is read only by -run, not by -exp <paper experiment>"},
		{"-chaos-target with -exp", []string{"-exp", "fig2d", "-quick", "-workloads", "rocksdb", "-chaos-target", "machine"}, "-chaos-target is read only by -exp chaos, not by -exp <paper experiment>"},
		{"-bench-out with -run", []string{"-run", "-quick", "-bench-out", "x.json"}, "-bench-out is read only by -exp cluster, not by -run"},
		{"-trace with -exp", []string{"-exp", "fig4", "-trace", "t.json"}, "-trace is read only by -run, not by -exp"},
		{"-trace-events without -trace", []string{"-run", "-trace-events", "alloc.*"}, "-trace-events is read only by -run -trace, not by -run"},
		{"-sanitize with -exp", []string{"-exp", "fig4", "-sanitize"}, "-sanitize is read only by -run, not by -exp"},
		{"-workloads with -run", []string{"-run", "-workloads", "rocksdb"}, "-workloads is read only by -exp <paper experiment>, not by -run"},
		{"-exp with -run", []string{"-run", "-exp", "fig4"}, "not by -run"},
		{"-replay without chaos", []string{"-exp", "fig4", "-replay", "x.json"}, "-replay is read only by -exp chaos -replay, not by -exp <paper experiment>"},
		{"-chaos-out with -replay", []string{"-exp", "chaos", "-replay", "x.json", "-chaos-out", "c.json"}, "-chaos-out is read only by -exp chaos, not by -exp chaos -replay"},
		{"-scale with chaos", []string{"-exp", "chaos", "-scale", "128"}, "not by -exp chaos"},
		{"-workloads with cluster", []string{"-exp", "cluster", "-workloads", "rocksdb"}, "-workloads is read only by -exp <paper experiment>, not by -exp cluster"},
	} {
		fs := flag.NewFlagSet("klocbench", flag.ContinueOnError)
		c := defineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: parse %q: %v", tc.name, tc.args, err)
		}
		_, err := checkFlags(fs, c)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: klocbench %s rejected: %v", tc.name, strings.Join(tc.args, " "), err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: klocbench %s accepted, want an error containing %q", tc.name, strings.Join(tc.args, " "), tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: klocbench %s: error %q does not contain %q", tc.name, strings.Join(tc.args, " "), err, tc.want)
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
