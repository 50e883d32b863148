package harness

import (
	"errors"
	"strings"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

func traceTestConfig() RunConfig {
	return RunConfig{
		PolicyName: "klocs",
		Workload:   "rocksdb",
		Duration:   20 * sim.Millisecond,
	}
}

// TestTracingIsPassive: a traced run must be bit-identical to an
// untraced one — the tracer charges no virtual cost and draws no
// randomness, so arming it cannot perturb the simulation.
func TestTracingIsPassive(t *testing.T) {
	plain, err := Run(traceTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceTestConfig()
	cfg.Trace = &trace.Config{}
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ops != traced.Ops || plain.VirtualTime != traced.VirtualTime ||
		plain.Throughput != traced.Throughput {
		t.Fatalf("tracing perturbed the run: ops %d vs %d, vt %v vs %v",
			plain.Ops, traced.Ops, plain.VirtualTime, traced.VirtualTime)
	}
	if plain.Mem.MigratedPages != traced.Mem.MigratedPages ||
		plain.Mem.Refs != traced.Mem.Refs {
		t.Fatalf("tracing perturbed memory stats:\n%+v\n%+v", plain.Mem, traced.Mem)
	}
	if plain.FS != traced.FS {
		t.Fatalf("tracing perturbed FS stats:\n%+v\n%+v", plain.FS, traced.FS)
	}
	if traced.TraceStats.Emitted == 0 {
		t.Fatal("traced run emitted no events")
	}
	if plain.Trace != nil || plain.TraceStats.Emitted != 0 {
		t.Fatal("untraced run carries a tracer")
	}
}

// TestTraceExportsAreReproducible: two same-seed runs must produce
// byte-identical trace files in both export formats.
func TestTraceExportsAreReproducible(t *testing.T) {
	run := func() (*Result, error) {
		cfg := traceTestConfig()
		cfg.Trace = &trace.Config{Events: []string{"alloc.*", "memsim.migrate"}}
		return Run(cfg)
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.TextString() != b.Trace.TextString() {
		t.Fatal("text trace differs between same-seed runs")
	}
	var ja, jb strings.Builder
	if err := a.Trace.WriteChrome(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Trace.WriteChrome(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatal("chrome trace differs between same-seed runs")
	}
	// The enable patterns really filtered: only alloc.* and
	// memsim.migrate names appear.
	for _, nc := range a.TraceStats.ByName {
		name := string(nc.Name)
		if !strings.HasPrefix(name, "alloc.") && name != "memsim.migrate" {
			t.Fatalf("disabled event %q was recorded", name)
		}
	}
}

// TestRunRejectsBadTracePatterns: an event pattern that is malformed
// or matches no catalog name would trace nothing, so Run refuses it
// with EINVAL before any setup work.
func TestRunRejectsBadTracePatterns(t *testing.T) {
	for _, events := range [][]string{
		{"nosuch.event"},
		{"["},
		{"alloc.*", "alloc.slab["},
	} {
		cfg := traceTestConfig()
		cfg.Trace = &trace.Config{Events: events}
		if _, err := Run(cfg); !errors.Is(err, fault.EINVAL) {
			t.Errorf("Run with trace events %q: err = %v, want EINVAL", events, err)
		}
	}
}
