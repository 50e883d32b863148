package chaos

import (
	"errors"
	"strings"
	"testing"

	"kloc/internal/cluster"
	"kloc/internal/fault"
	"kloc/internal/sim"
)

// small returns a campaign config sized for test wall-clock: few
// schedules, short windows, tiny platform.
func small(target string) Config {
	return Config{
		Target:           target,
		Schedules:        8,
		Seed:             42,
		MaxInjections:    4,
		DeterminismEvery: 4,
		ScaleDiv:         512,
		Duration:         4 * sim.Millisecond,
		SettleBound:      30 * sim.Millisecond,
	}
}

func TestCleanClusterCampaign(t *testing.T) {
	sum, arts, err := RunCampaign(small(TargetCluster))
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if !sum.Clean || len(sum.Violations) != 0 || len(arts) != 0 {
		t.Fatalf("expected clean campaign, got violations %+v", sum.Violations)
	}
	if sum.Schedules != 8 || sum.Injections == 0 {
		t.Fatalf("summary bookkeeping off: %+v", sum)
	}
	if sum.DeterminismRuns != 2 {
		t.Fatalf("determinism runs = %d, want 2 (every 4th of 8)", sum.DeterminismRuns)
	}
	if sum.SchemaVersion != SchemaVersion || sum.Experiment != "chaos" {
		t.Fatalf("summary metadata off: %+v", sum)
	}
	want := []string{OracleRunError, OracleDrain, OracleReadmit, OracleOutstanding, OracleTerminate, OracleBreaker, OracleDeterminism}
	if len(sum.OraclesChecked) != len(want) {
		t.Fatalf("oracles checked = %v, want %v", sum.OraclesChecked, want)
	}
	for i, id := range want {
		if sum.OraclesChecked[i] != id {
			t.Fatalf("oracles checked = %v, want %v", sum.OraclesChecked, want)
		}
	}
}

func TestCleanMachineCampaign(t *testing.T) {
	cfg := small(TargetMachine)
	cfg.Schedules = 4
	sum, arts, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if !sum.Clean || len(arts) != 0 {
		t.Fatalf("expected clean campaign, got violations %+v", sum.Violations)
	}
	for _, id := range []string{OracleJournal, OracleSanitizer} {
		found := false
		for _, got := range sum.OraclesChecked {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("machine campaign missing oracle %s: %v", id, sum.OraclesChecked)
		}
	}
}

// TestBugCampaignCaughtMinimizedReplayed is the end-to-end oracle
// self-test: re-introduce the hedge-slot-leak defect, watch a
// conservation oracle catch it, shrink the schedule to a tiny repro,
// and prove the artifact replays to the byte.
func TestBugCampaignCaughtMinimizedReplayed(t *testing.T) {
	cfg := small(TargetCluster)
	cfg.Schedules = 10
	cfg.Bug = cluster.BugHedgeSlotLeak
	sum, arts, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if sum.Clean || len(arts) == 0 {
		t.Fatalf("bug fixture %s not caught by any oracle", cfg.Bug)
	}
	rec := sum.Violations[0]
	if rec.Oracle != OracleOutstanding && rec.Oracle != OracleTerminate {
		t.Fatalf("caught by %s, expected a conservation oracle: %+v", rec.Oracle, rec)
	}
	if rec.MinimizedInjections > 3 {
		t.Fatalf("minimized to %d injections, want <= 3: %+v", rec.MinimizedInjections, rec)
	}
	if rec.MinimizeProbes == 0 || rec.Artifact == "" {
		t.Fatalf("minimization bookkeeping off: %+v", rec)
	}

	art := arts[0]
	if art.Filename() != rec.Artifact || art.Oracle != rec.Oracle || art.Bug != cfg.Bug {
		t.Fatalf("artifact/record mismatch: %+v vs %+v", art, rec)
	}

	// The artifact must survive a JSON round trip...
	data, err := art.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	parsed, err := ParseArtifact(data)
	if err != nil {
		t.Fatalf("ParseArtifact: %v", err)
	}
	if parsed.Schedule.Hash() != art.Schedule.Hash() || parsed.TraceFNV != art.TraceFNV {
		t.Fatalf("artifact round trip drifted: %+v vs %+v", parsed, art)
	}

	// ...and replay to the same violation with byte-identical traces,
	// twice in a row.
	for pass := 0; pass < 2; pass++ {
		rep, err := Replay(parsed)
		if err != nil {
			t.Fatalf("Replay pass %d: %v", pass, err)
		}
		if rep.Violation == nil {
			t.Fatalf("replay pass %d: violation did not reproduce", pass)
		}
		if !rep.OracleMatch {
			t.Fatalf("replay pass %d: reproduced %s, artifact says %s", pass, rep.Violation.Oracle, art.Oracle)
		}
		if !rep.Deterministic {
			t.Fatalf("replay pass %d: traces diverged across re-execution", pass)
		}
		if !rep.TraceMatch {
			t.Fatalf("replay pass %d: trace fnv %016x, artifact pinned %016x", pass, rep.TraceFNV, art.TraceFNV)
		}
	}
}

func TestBugProbeLeakCaught(t *testing.T) {
	// The probe leak needs a longer causal chain than the slot leak
	// (breaker opens, re-arms half-open, probes through a losing hedge
	// leg), so this campaign uses a seed whose first schedules are
	// known to walk it.
	cfg := small(TargetCluster)
	cfg.Schedules = 5
	cfg.Seed = 99
	cfg.MaxInjections = 6
	cfg.DeterminismEvery = -1
	cfg.Bug = cluster.BugProbeLeak
	sum, _, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if sum.Clean {
		t.Fatalf("bug fixture %s not caught by any oracle", cfg.Bug)
	}
	if got := sum.Violations[0].Oracle; got != OracleBreaker {
		t.Fatalf("caught by %s, want %s: %+v", got, OracleBreaker, sum.Violations[0])
	}
	if !strings.Contains(sum.Violations[0].Detail, "probe") {
		t.Fatalf("detail does not mention probes: %q", sum.Violations[0].Detail)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := small(TargetCluster)
	cfg.Schedules = 3
	a, _, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	b, _, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if a.Injections != b.Injections || a.Clean != b.Clean || len(a.Violations) != len(b.Violations) {
		t.Fatalf("campaign not deterministic: %+v vs %+v", a, b)
	}
}

func TestGeneratorDeterministicAndBounded(t *testing.T) {
	cfg := small(TargetCluster).withDefaults()
	g1, g2 := newGenerator(cfg), newGenerator(cfg)
	for i := 0; i < 20; i++ {
		s1, s2 := g1.next(), g2.next()
		if s1.String() != s2.String() {
			t.Fatalf("schedule %d diverged:\n%s\nvs\n%s", i, s1, s2)
		}
		if len(s1.Injections) < 1 || len(s1.Injections) > cfg.MaxInjections {
			t.Fatalf("schedule %d has %d injections, want 1..%d", i, len(s1.Injections), cfg.MaxInjections)
		}
		for _, in := range s1.Injections {
			if in.At < 0 || in.At >= cfg.Duration {
				t.Fatalf("injection offset %v outside window %v", in.At, cfg.Duration)
			}
			if in.Machine < 0 || in.Machine >= clusterMachines {
				t.Fatalf("injection machine %d outside fleet of %d", in.Machine, clusterMachines)
			}
		}
	}
}

func TestGeneratorMachineTargetExcludesFleetPoints(t *testing.T) {
	cfg := small(TargetMachine).withDefaults()
	g := newGenerator(cfg)
	for i := 0; i < 40; i++ {
		for _, in := range g.next().Injections {
			if in.Point == fault.MachineCrash || in.Point == fault.MachineDegrade {
				t.Fatalf("machine-target schedule sampled fleet point %s", in.Point)
			}
			if in.Machine != 0 {
				t.Fatalf("machine-target schedule addressed machine %d", in.Machine)
			}
		}
	}
}

// TestMinimizeFindsExactCore drives ddmin with a synthetic predicate:
// the "violation" needs exactly two specific injections, and the
// minimizer must strip the other six.
func TestMinimizeFindsExactCore(t *testing.T) {
	var s fault.Schedule
	for i := 0; i < 8; i++ {
		s.Injections = append(s.Injections, fault.Injection{
			Point: fault.BlockIO,
			At:    sim.Duration(i+1) * sim.Millisecond,
			Burst: 1,
		})
	}
	needs := func(cand fault.Schedule) bool {
		has3, has7 := false, false
		for _, in := range cand.Injections {
			if in.At == 3*sim.Millisecond {
				has3 = true
			}
			if in.At == 7*sim.Millisecond {
				has7 = true
			}
		}
		return has3 && has7
	}
	minimal, probes := minimize(s, needs)
	if len(minimal.Injections) != 2 {
		t.Fatalf("minimized to %d injections, want 2: %s", len(minimal.Injections), minimal)
	}
	if !needs(minimal) {
		t.Fatalf("minimal schedule lost the core: %s", minimal)
	}
	if probes == 0 {
		t.Fatalf("minimizer reported zero probes")
	}
}

func TestMinimizeToEmpty(t *testing.T) {
	var s fault.Schedule
	for i := 0; i < 4; i++ {
		s.Injections = append(s.Injections, fault.Injection{
			Point: fault.RxDrop,
			At:    sim.Duration(i+1) * sim.Millisecond,
			Burst: 1,
		})
	}
	always := func(fault.Schedule) bool { return true }
	minimal, _ := minimize(s, always)
	if len(minimal.Injections) != 0 {
		t.Fatalf("latent violation should minimize to the empty schedule, got %s", minimal)
	}
}

func TestParseArtifactRejectsGarbage(t *testing.T) {
	if _, err := ParseArtifact([]byte(`{"experiment":"bench"}`)); err == nil {
		t.Fatalf("accepted wrong experiment")
	}
	if _, err := ParseArtifact([]byte(`{"experiment":"chaos","schema_version":99,"target":"cluster"}`)); err == nil {
		t.Fatalf("accepted future schema version")
	}
	if _, err := ParseArtifact([]byte(`{"experiment":"chaos","schema_version":1,"target":"warehouse"}`)); err == nil {
		t.Fatalf("accepted unknown target")
	}
	bad := `{"experiment":"chaos","schema_version":1,"target":"cluster",
		"schedule":{"injections":[{"point":"no.such.point","at_ns":1}]}}`
	if _, err := ParseArtifact([]byte(bad)); err == nil {
		t.Fatalf("accepted unknown fault point in schedule")
	}
	huge := `{"experiment":"chaos","schema_version":1,"target":"cluster",
		"schedule":{"injections":[{"point":"blockdev.io","at_ns":1,"burst":20000000}]}}`
	if _, err := ParseArtifact([]byte(huge)); !errors.Is(err, fault.EINVAL) {
		t.Fatalf("burst of 20,000,000 in schedule: err %v, want EINVAL", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if _, _, err := RunCampaign(Config{Target: "fleet"}); err == nil {
		t.Fatalf("accepted unknown target")
	}
}
