package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// The loader type-checks the standard library from GOROOT sources, so
// all tests share one instance: dependencies check once per process.
var sharedLoader struct {
	once   sync.Once
	loader *Loader
	err    error
}

func testLoader(t *testing.T) *Loader {
	t.Helper()
	sharedLoader.once.Do(func() {
		sharedLoader.loader, sharedLoader.err = NewLoader(".")
	})
	if sharedLoader.err != nil {
		t.Fatalf("NewLoader: %v", sharedLoader.err)
	}
	return sharedLoader.loader
}

// checkFixture loads testdata/src/<name> and diffs the analyzer's
// diagnostics against the fixture's `// want` comments.
func checkFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.Load(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	problems, err := CheckExpectations(pkg, a)
	if err != nil {
		t.Fatalf("check fixture %s: %v", name, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestNoDeterminismFixture(t *testing.T) { checkFixture(t, NoDeterminism, "nodeterminism") }
func TestErrnoCheckFixture(t *testing.T)    { checkFixture(t, ErrnoCheck, "errnocheck") }

// TestModuleTargets checks the module enumeration finds the load-
// bearing packages and skips fixture trees.
func TestModuleTargets(t *testing.T) {
	l := testLoader(t)
	targets, err := ModuleTargets(l.ModuleDir, l.ModulePath)
	if err != nil {
		t.Fatalf("ModuleTargets: %v", err)
	}
	byPath := make(map[string]bool, len(targets))
	for _, tgt := range targets {
		byPath[tgt.ImportPath] = true
		if filepath.Base(filepath.Dir(tgt.Dir)) == "testdata" {
			t.Errorf("target %s is inside a testdata tree", tgt.Dir)
		}
	}
	for _, want := range []string{"kloc", "kloc/internal/fs", "kloc/internal/alloc", "kloc/cmd/klocbench", "kloc/cmd/kloclint"} {
		if !byPath[want] {
			t.Errorf("ModuleTargets missing %s (got %d targets)", want, len(targets))
		}
	}
}

// TestModuleIsClean runs the full suite — per-package analyzers, the
// interprocedural module analyzers, and the suppression audit — over
// every lintable package of the module: the in-test equivalent of
// `make lint` passing.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m := testModule(t)
	audit := NewMarkerAudit()
	var all []Diagnostic
	for _, pkg := range m.Packages {
		diags, err := RunAnalyzers(pkg, All(), audit)
		if err != nil {
			t.Fatalf("run %s: %v", pkg.Path, err)
		}
		all = append(all, diags...)
	}
	diags, err := RunModuleAnalyzers(m, AllModule(), audit)
	if err != nil {
		t.Fatalf("run module analyzers: %v", err)
	}
	all = append(all, diags...)
	all = append(all, AuditSuppressions(m.Packages, audit)...)
	for _, d := range all {
		t.Errorf("%s", d)
	}
}

// TestMarkerCoversNextLine pins the marker placement rule the
// analyzers rely on: a standalone marker annotates the following line.
func TestMarkerCoversNextLine(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load(filepath.Join("testdata", "src", "nodeterminism"), "fixture/markers")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	pass := &Pass{Analyzer: NoDeterminism, Pkg: pkg, diags: new([]Diagnostic)}
	found := false
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !found && len(c.Text) > 2 && c.Text[:2] == "//" && containsMarker(c.Text) {
					if !pass.Marked("unordered", c.Pos()) {
						t.Errorf("marker does not cover its own line")
					}
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("fixture has no //klocs:unordered marker to test against")
	}
}

func containsMarker(text string) bool {
	const want = "//klocs:unordered"
	return len(text) >= len(want) && text[:len(want)] == want
}
