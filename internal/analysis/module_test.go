package analysis

import (
	"go/ast"
	"go/types"
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

func TestLifecycleFixture(t *testing.T)  { checkModuleFixture(t, Lifecycle, "lifecycle") }
func TestErrnoFlowFixture(t *testing.T)  { checkModuleFixture(t, ErrnoFlow, "errnoflow") }
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

func TestCallGraphResolution(t *testing.T) {
	pkg := loadFixturePkg(t, "callgraph")
	g := BuildCallGraph([]*Package{pkg})

	// Interface dispatch resolves to every implementing module type.
	closeAll := nodeNamed(t, g, "CloseAll")
	var ifaceSites []*CallSite
	for _, site := range closeAll.Calls {
		if site.Kind == CallInterface {
			ifaceSites = append(ifaceSites, site)
		}
	}
	if len(ifaceSites) != 1 {
		t.Fatalf("CloseAll has %d interface call sites, want 1", len(ifaceSites))
	}
	callees := map[string]bool{}
	for _, c := range ifaceSites[0].Callees {
		callees[c.String()] = true
	}
	for _, want := range []string{"fixture.fileObj.Close", "fixture.sockObj.Close"} {
		if !callees[want] {
			t.Errorf("interface dispatch missing callee %s (got %v)", want, callees)
		}
	}

	// A call through a function-typed field is dynamic with no callees.
	fire := nodeNamed(t, g, "Fire")
	if len(fire.Calls) != 1 || fire.Calls[0].Kind != CallDynamic || len(fire.Calls[0].Callees) != 0 {
		t.Errorf("Fire's hook call should be CallDynamic with no callees, got %+v", fire.Calls)
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

	// Direct calls resolve statically.
	direct := nodeNamed(t, g, "Direct")
	if len(direct.Calls) != 1 || direct.Calls[0].Kind != CallStatic {
		t.Fatalf("Direct's call should be CallStatic, got %+v", direct.Calls)
	}
	if got := direct.Calls[0].Callees[0].String(); got != "fixture.helper" {
		t.Errorf("Direct resolves to %s, want fixture.helper", got)
	}

	// A method of an instantiated generic type resolves statically to
	// its generic declaration.
	unbox := nodeNamed(t, g, "Unbox")
	if len(unbox.Calls) != 1 || unbox.Calls[0].Kind != CallStatic {
		t.Errorf("Unbox's call should be CallStatic, got %+v", unbox.Calls)
	} else if got := unbox.Calls[0].Callees[0].String(); got != "fixture.box.Get" {
		t.Errorf("Unbox resolves to %s, want fixture.box.Get", got)
	}

	// An explicit instantiation, with one type argument or several,
	// resolves statically to the generic function.
	inst := nodeNamed(t, g, "Instantiate")
	var instCallees []string
	for _, site := range inst.Calls {
		if site.Kind != CallStatic || len(site.Callees) != 1 {
			t.Errorf("Instantiate's call %s should be CallStatic with one callee, got kind %d with %d", types.ExprString(site.Call.Fun), site.Kind, len(site.Callees))
			continue
		}
		instCallees = append(instCallees, site.Callees[0].String())
	}
	if got := strings.Join(instCallees, " "); got != "fixture.first fixture.pick" {
		t.Errorf("Instantiate resolves to %q, want \"fixture.first fixture.pick\"", got)
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

// TestSCCsCalleeFirst pins the bottom-up traversal order the summary
// fixpoint depends on: a recursive cycle forms one component, emitted
// before its caller.
func TestSCCsCalleeFirst(t *testing.T) {
	pkg := loadFixturePkg(t, "callgraph")
	g := BuildCallGraph([]*Package{pkg})
	even := nodeNamed(t, g, "even")
	odd := nodeNamed(t, g, "odd")
	parity := nodeNamed(t, g, "Parity")
	sccs := g.SCCs()
	idx := func(n *FuncNode) int {
		for i, scc := range sccs {
			for _, m := range scc {
				if m == n {
					return i
				}
			}
		}
		return -1
	}
	if idx(even) < 0 || idx(even) != idx(odd) {
		t.Errorf("even (scc %d) and odd (scc %d) should share one SCC", idx(even), idx(odd))
	}
	if idx(even) >= idx(parity) {
		t.Errorf("cycle SCC %d should be emitted before its caller's SCC %d", idx(even), idx(parity))
	}
}

// TestReachingDefs pins the dataflow layer on a known shape: both
// definitions of x reach the return.
func TestReachingDefs(t *testing.T) {
	pkg := loadFixturePkg(t, "callgraph")
	var decl *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Branchy" {
				decl = fd
			}
		}
	}
	if decl == nil {
		t.Fatal("fixture lacks Branchy")
	}
	cfg := NewCFG(decl.Body)
	if cfg == nil || !cfg.OK {
		t.Fatal("CFG construction failed for Branchy")
	}
	var x *types.Var
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "x" {
			if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
				x = v
			}
		}
		return true
	})
	if x == nil {
		t.Fatal("no definition of x in Branchy")
	}
	rd := NewReachingDefs(cfg, pkg.Info, decl.Type, decl.Recv)
	foundJoin := false
	for _, b := range cfg.Blocks {
		if b.Return != nil && len(rd.At(b, 0, x)) == 2 {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Error("no return block sees both definitions of x")
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
// interface resolution the interprocedural analyzers rely on: the
// pressure plane's Shrinker.Scan dispatch must see the fs and netsim
// registrations.
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
		for _, site := range n.Calls {
			if site.Kind != CallInterface || calleeName(site.Call) != "Scan" {
				continue
			}
			for _, c := range site.Callees {
				calleePkgs[c.Pkg.Path] = true
			}
		}
	}
	if len(calleePkgs) == 0 {
		t.Fatal("no interface Scan dispatch found in kloc/internal/pressure")
	}
	for _, want := range []string{"kloc/internal/fs", "kloc/internal/netsim"} {
		if !calleePkgs[want] {
			t.Errorf("Shrinker.Scan dispatch misses implementations in %s (got %v)", want, calleePkgs)
		}
	}
}
