package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the
// catalog in this package in step: same workloads, same metrics with
// the same units, directions and bounds, all within the format's
// limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalog %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q is malformed or its why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(endToEnd) > 16 || len(perLayer) > 128 || len(perLayer) != 58 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and exactly 58", len(endToEnd), len(perLayer))
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalog %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	check := func(m metric, name, unit, better string) {
		t.Helper()
		if name != m.name || unit != m.unit || better != m.better {
			t.Errorf("BENCHMARK.json has %s/%s/%s, the catalog %s/%s/%s", name, unit, better, m.name, m.unit, m.better)
		}
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q or its unit %q is malformed", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	largest := 0.0
	for i, m := range endToEnd {
		e := b.EndToEnd[i]
		check(m, e.Name, e.Unit, e.Better)
		if e.Bound != m.bound || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %g in BENCHMARK.json, %g in the catalog, want equal in (0, 0.25]", m.name, e.Bound, m.bound)
		}
		if m.bound > largest {
			largest = m.bound
		}
	}
	for i, m := range perLayer {
		check(m, b.PerLayer[i].Name, b.PerLayer[i].Unit, b.PerLayer[i].Better)
		if m.bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.name)
		}
	}
	for _, m := range endToEnd {
		if m.name == "setup_s" && (m.unit != "s" || m.better != "lower" || m.bound != largest) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
