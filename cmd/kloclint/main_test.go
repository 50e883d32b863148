package main

import (
	"bytes"
	"strings"
	"testing"
)

// keptSuite is the analyzer suite -list must show, in order.
var keptSuite = []string{"nodeterminism", "errnocheck", "tracereach", "suppressaudit"}

// TestSelectAnalyzersRejectsDeletedNames pins that the deleted and
// folded analyzers are gone from -only, and that the error lists the
// valid names.
func TestSelectAnalyzersRejectsDeletedNames(t *testing.T) {
	for _, name := range []string{"rngflow", "allocpair", "tracenames", "lifecycle", "errnoflow"} {
		_, _, err := selectAnalyzers(name)
		if err == nil {
			t.Fatalf("-only %s: accepted", name)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown analyzer \""+name+"\"") {
			t.Errorf("-only %s: error %q does not name it", name, msg)
		}
		for _, valid := range keptSuite[:len(keptSuite)-1] {
			if !strings.Contains(msg, valid) {
				t.Errorf("-only %s: error %q does not list %s", name, msg, valid)
			}
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	pkg, mod, err := selectAnalyzers("")
	if err != nil || len(pkg) != 2 || len(mod) != 1 {
		t.Fatalf("default selection: %d package, %d module analyzers, err %v; want 2, 1, nil", len(pkg), len(mod), err)
	}
	pkg, mod, err = selectAnalyzers(" errnocheck, tracereach,")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg) != 1 || pkg[0].Name != "errnocheck" || len(mod) != 1 || mod[0].Name != "tracereach" {
		t.Errorf("-only errnocheck,tracereach selected %v and %v", pkg, mod)
	}
	if _, _, err := selectAnalyzers(","); err == nil || !strings.Contains(err.Error(), "selected no analyzers") {
		t.Errorf("-only , : err %v, want a no-analyzers error", err)
	}
}

// TestListShowsKeptSuite pins -list to exactly the kept suite.
func TestListShowsKeptSuite(t *testing.T) {
	var buf bytes.Buffer
	listAnalyzers(&buf)
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if strings.Join(got, " ") != strings.Join(keptSuite, " ") {
		t.Errorf("-list shows %v, want %v", got, keptSuite)
	}
}
