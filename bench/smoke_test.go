package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"kloc/internal/kernel"
	"kloc/internal/policy"
)

// smokeSize runs every workload for a few milliseconds of virtual time
// on the small platform.
var smokeSize = size{div: 256, frac: 0.05}

// TestWorkloadsRepeatAndTracingIsPassive runs every workload twice,
// and each single-run workload once more under the traced pass's
// policy decorator (the others run no decorator): all outputs must be
// identical.
func TestWorkloadsRepeatAndTracingIsPassive(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			chk := &checker{}
			single := false
			for _, prb := range []*probe{nil, nil, {log: &spanLog{}}} {
				if prb != nil && !single {
					break
				}
				out, err := w.exec(smokeSize, 7, prb)
				if err != nil {
					t.Fatal(err)
				}
				if err := chk.check(out); err != nil {
					t.Fatalf("traced=%v: %v", prb != nil, err)
				}
				single = out.res != nil
				if prb != nil && (prb.notifies == 0 || prb.setupEnd.IsZero()) {
					t.Errorf("the decorator saw %d notifications and no setup end", prb.notifies)
				}
			}
			if err := w.setup(smokeSize, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPasses runs both passes end to end on the cheapest workload and
// checks their reports carry every catalog metric.
func TestPasses(t *testing.T) {
	w, err := workloadByName("net-klocs")
	if err != nil {
		t.Fatal(err)
	}
	c := config{seed: 3, seconds: 0.2, size: smokeSize, root: "..", spans: t.TempDir()}
	for _, tc := range []struct {
		pass    func(*workload, config, io.Writer) (*report, error)
		catalog []metric
	}{{untraced, endToEnd}, {traced, perLayer}} {
		rep, err := tc.pass(w, c, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(tc.catalog) {
			t.Fatalf("report: correct=%v attempted=%d failed=%d metrics=%d",
				rep.Correct, rep.Attempted, rep.Failed, len(rep.Metrics))
		}
		for _, m := range tc.catalog {
			if _, ok := rep.Metrics[m.name]; !ok {
				t.Errorf("report lacks %s", m.name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(c.spans, "net-klocs-seed3.json")); err != nil {
		t.Error(err)
	}
}

// TestDecoratorKeepsOOMChooser: the kernel finds a policy's OOM victim
// chooser by type assertion, so the decorator must offer it exactly
// when the policy it wraps does.
func TestDecoratorKeepsOOMChooser(t *testing.T) {
	for _, name := range []string{"klocs", "nimble"} {
		inner, err := policy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, want := inner.(kernel.OOMVictimChooser)
		_, got := (&probe{log: &spanLog{}}).wrap(inner).(kernel.OOMVictimChooser)
		if got != want {
			t.Errorf("%s: decorated policy chooses OOM victims: %v, want %v", name, got, want)
		}
	}
}
