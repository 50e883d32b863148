package harness

import (
	"reflect"
	"testing"

	"kloc/internal/fault"
)

// TestFaultRateZeroBitIdentical: arming a rate-0 plane must leave the
// run bit-identical to an unfaulted one — the plane draws no randomness
// and injects nothing, so every metric matches exactly.
func TestFaultRateZeroBitIdentical(t *testing.T) {
	base := quickRun(RunConfig{PolicyName: "klocs", Workload: "rocksdb"})
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fault.Uniform(7, 0)
	base.Fault = &fcfg
	armed, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if armed.FaultsInjected != 0 || armed.FaultTrace != "" {
		t.Fatalf("rate-0 plane injected: %d (%q)", armed.FaultsInjected, armed.FaultTrace)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Fatalf("rate-0 run diverged from unfaulted run:\nplain: %+v\narmed: %+v", plain, armed)
	}
}

// TestFaultDeterminism: the same seed and fault config must reproduce
// the run exactly — byte-identical fault trace, identical metrics.
func TestFaultDeterminism(t *testing.T) {
	fcfg := fault.Uniform(42, 1e-3)
	cfg := quickRun(RunConfig{PolicyName: "klocs", Workload: "rocksdb", Fault: &fcfg})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultsInjected == 0 {
		t.Fatal("rate 1e-3 never injected; test has no power")
	}
	if a.FaultTrace != b.FaultTrace {
		t.Fatalf("fault traces diverged:\n%s\n---\n%s", a.FaultTrace, b.FaultTrace)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics diverged across identical runs:\na: %+v\nb: %+v", a, b)
	}
	// A different fault seed must produce a different trace.
	fcfg2 := fault.Uniform(43, 1e-3)
	cfg.Fault = &fcfg2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultTrace == a.FaultTrace && c.FaultsInjected == a.FaultsInjected {
		t.Fatal("fault seed had no effect on the trace")
	}
}

// TestFaultSweepSurvives: every strategy must absorb a high fault rate
// without aborting — errnos degrade individual operations, never the
// run.
func TestFaultSweepSurvives(t *testing.T) {
	for _, pol := range []string{"naive", "nimble", "nimble++", "klocs"} {
		fcfg := fault.Uniform(42, 1e-3)
		res, err := Run(quickRun(RunConfig{PolicyName: pol, Workload: "filebench", Fault: &fcfg}))
		if err != nil {
			t.Fatalf("%s did not survive injection: %v", pol, err)
		}
		if res.Ops <= 0 {
			t.Fatalf("%s made no progress under faults", pol)
		}
		if res.FaultsInjected == 0 {
			t.Fatalf("%s: plane never fired at rate 1e-3", pol)
		}
	}
}

// TestFaultsExperimentRuns: the sweep table builds with the right shape.
func TestFaultsExperimentRuns(t *testing.T) {
	o := quick()
	o.Workloads = []string{"filebench"}
	tb, err := Experiment("faults", o)
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload x 4 strategies x 3 rates.
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatalf("row shape: %v", row)
		}
	}
	// Rate-0 rows must show zero injections; the 1e-3 rows must not.
	if tb.Rows[0][5] != "0" {
		t.Fatalf("rate-0 row injected: %v", tb.Rows[0])
	}
	if tb.Rows[2][5] == "0" {
		t.Fatalf("rate-1e-3 row never injected: %v", tb.Rows[2])
	}
}
