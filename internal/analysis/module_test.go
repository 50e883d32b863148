package analysis

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// loadFixturePkg loads one testdata package under the fixture/ import
// prefix (which opts it into the errno boundary scope).
func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.Load(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

// checkModuleFixture wraps one fixture package in a single-package
// Module and diffs the module analyzer's diagnostics against the
// fixture's `// want` comments.
func checkModuleFixture(t *testing.T, a *ModuleAnalyzer, name string) {
	t.Helper()
	problems, err := CheckModuleExpectations([]*Package{loadFixturePkg(t, name)}, a)
	if err != nil {
		t.Fatalf("check fixture %s: %v", name, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestTraceReachFixture(t *testing.T) { checkModuleFixture(t, TraceReach, "tracereach") }

// TestTraceNamesFixture runs tracereach over a fixture whose catalog
// is fully emitted, so it exercises the name check on its own.
func TestTraceNamesFixture(t *testing.T) { checkModuleFixture(t, TraceReach, "tracenames") }

// TestWantHarnessCatchesMismatch is the meta-test for the fixture
// harness: wrong expectations must fail in both directions — a
// diagnostic no pattern matches, and a pattern no diagnostic matches.
func TestWantHarnessCatchesMismatch(t *testing.T) {
	pkg := loadFixturePkg(t, "wantmeta")
	problems, err := CheckExpectations(pkg, ErrnoCheck)
	if err != nil {
		t.Fatalf("CheckExpectations: %v", err)
	}
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		"unexpected diagnostic",
		`"this pattern matches nothing"`,
		`"phantom diagnostic expected here"`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems lack %s:\n%s", want, joined)
		}
	}
}

// TestModuleWantHarnessCatchesMismatch is the same meta-test for a
// module analyzer: the modulemeta fixture carries one real tracereach
// diagnostic under a non-matching pattern and one phantom
// expectation, so exactly three problems must surface — the
// unexpected diagnostic and both unmatched wants.
func TestModuleWantHarnessCatchesMismatch(t *testing.T) {
	problems, err := CheckModuleExpectations([]*Package{loadFixturePkg(t, "modulemeta")}, TraceReach)
	if err != nil {
		t.Fatalf("CheckModuleExpectations: %v", err)
	}
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		"unexpected diagnostic",
		`"this pattern matches nothing"`,
		`"phantom tracereach diagnostic expected here"`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems lack %s:\n%s", want, joined)
		}
	}
}

// nodeNamed finds a graph node by its String() label suffix
// ("CloseAll", "fileObj.Close", ...).
func nodeNamed(t *testing.T, g *CallGraph, label string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Obj != nil && strings.HasSuffix(n.String(), "."+label) {
			return n
		}
	}
	t.Fatalf("no function %q in graph", label)
	return nil
}

// calls labels the functions n's calls resolve to, in order.
func calls(n *FuncNode) string {
	labels := make([]string, len(n.Calls))
	for i, c := range n.Calls {
		labels[i] = c.String()
	}
	return strings.Join(labels, " ")
}

func TestCallGraphResolution(t *testing.T) {
	pkg := loadFixturePkg(t, "callgraph")
	g := BuildCallGraph([]*Package{pkg})

	// Interface dispatch resolves CloseAll's one call to every
	// implementing module type.
	if got, want := calls(nodeNamed(t, g, "CloseAll")), "fixture.fileObj.Close fixture.sockObj.Close"; got != want {
		t.Errorf("CloseAll calls %q, want %q", got, want)
	}

	// A call through a function-typed field has no callee.
	if got := calls(nodeNamed(t, g, "Fire")); got != "" {
		t.Errorf("Fire's hook call resolves to %q, want no callee", got)
	}

	// Method values and function idents taken as values become Refs.
	takeRefs := nodeNamed(t, g, "TakeRefs")
	refs := map[string]bool{}
	for _, r := range takeRefs.Refs {
		refs[r.String()] = true
	}
	for _, want := range []string{"fixture.fileObj.Close", "fixture.helper"} {
		if !refs[want] {
			t.Errorf("TakeRefs missing ref %s (got %v)", want, refs)
		}
	}

	// Direct calls resolve statically, and so does a method of an
	// instantiated generic type, to its generic declaration, and an
	// explicit instantiation, with one type argument or several, to the
	// generic function.
	for _, c := range []struct{ label, want string }{
		{"Direct", "fixture.helper"},
		{"Unbox", "fixture.box.Get"},
		{"Instantiate", "fixture.first fixture.pick"},
	} {
		if got := calls(nodeNamed(t, g, c.label)); got != c.want {
			t.Errorf("%s calls %q, want %q", c.label, got, c.want)
		}
	}

	// Reachability follows Refs: storing a hook keeps its target alive.
	reached := g.Reachable([]*FuncNode{takeRefs})
	for _, want := range []string{"fixture.helper", "fixture.fileObj.Close"} {
		if !reached[nodeNamed(t, g, strings.TrimPrefix(want, "fixture."))] {
			t.Errorf("%s not reachable through TakeRefs' references", want)
		}
	}
	// A call in a package-level initializer roots its callee.
	if !reached[nodeNamed(t, g, "initial")] {
		t.Error("initial, called by a package initializer, is not reachable")
	}
}

// The module view is built once per process: TestModuleIsClean, the
// reachability census and the dispatch test share its load and graph.
var sharedModule struct {
	once   sync.Once
	module *Module
}

// testModule returns the module view over every lintable package.
func testModule(t *testing.T) *Module {
	t.Helper()
	sharedModule.once.Do(func() { sharedModule.module = NewModule(loadModulePackages(t)) })
	if sharedModule.module == nil {
		t.Fatal("module load failed in an earlier test")
	}
	return sharedModule.module
}

// loadModulePackages loads every lintable package of the real module.
func loadModulePackages(t *testing.T) []*Package {
	t.Helper()
	l := testLoader(t)
	targets, err := ModuleTargets(l.ModuleDir, l.ModulePath)
	if err != nil {
		t.Fatalf("ModuleTargets: %v", err)
	}
	pkgs := make([]*Package, 0, len(targets))
	for _, tgt := range targets {
		pkg, err := l.Load(tgt.Dir, tgt.ImportPath)
		if err != nil {
			t.Fatalf("load %s: %v", tgt.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestShrinkerDispatchResolvesAcrossPackages pins the cross-package
// interface resolution reachability relies on: the pressure plane's
// Shrinker.Scan dispatch must see the fs and netsim registrations,
// which pressure does not import.
func TestShrinkerDispatchResolvesAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m := testModule(t)
	calleePkgs := map[string]bool{}
	for _, n := range m.Graph.Nodes {
		if n.Pkg == nil || n.Pkg.Path != "kloc/internal/pressure" {
			continue
		}
		for _, c := range n.Calls {
			if c.Obj != nil && c.Obj.Name() == "Scan" {
				calleePkgs[c.Pkg.Path] = true
			}
		}
	}
	if len(calleePkgs) == 0 {
		t.Fatal("no Scan call from kloc/internal/pressure resolves")
	}
	for _, want := range []string{"kloc/internal/fs", "kloc/internal/netsim"} {
		if !calleePkgs[want] {
			t.Errorf("Shrinker.Scan dispatch misses implementations in %s (got %v)", want, calleePkgs)
		}
	}
}
