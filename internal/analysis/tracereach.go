package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// TraceReach is the reverse of tracenames: where tracenames proves
// every Emit site uses a registered catalog name, this analyzer
// proves every registered catalog name still has a live Emit site. A
// catalog constant with no reachable emitter is a dead entry — it
// shows up in trace.Names(), -trace-events patterns match it, and
// OBSERVABILITY.md documents it, but no run can ever produce the
// event. That is exactly the drift a tracepoint catalog accumulates
// when subsystems are refactored and their instrumentation is
// deleted without unregistering the event.
//
// Reachability runs over the module call graph from its entry
// surface: exported functions and methods, main, init, and functions
// referenced from package-level initializers. An Emit site buried in
// an unexported function nothing calls does not keep its catalog
// entry alive. Catalog constants kept intentionally (e.g. reserved
// for an in-flight subsystem) carry //klocs:ignore-tracereach with
// the justification.
var TraceReach = &ModuleAnalyzer{
	Name: "tracereach",
	Doc:  "require every internal/trace catalog constant to be emitted from reachable code",
	Run:  runTraceReach,
}

const traceReachMarker = "ignore-tracereach"

func runTraceReach(pass *ModulePass) error {
	g := pass.Module.Graph

	// The catalog under audit: package-level constants of type
	// trace.Name declared anywhere in the analyzed packages.
	type catalogEntry struct {
		name  string
		ident string
		pos   token.Pos
	}
	var catalog []catalogEntry
	for _, pkg := range pass.Module.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !isTraceName(c.Type()) {
				continue
			}
			if c.Val().Kind() != constant.String {
				continue
			}
			catalog = append(catalog, catalogEntry{
				name:  constant.StringVal(c.Val()),
				ident: name,
				pos:   c.Pos(),
			})
		}
	}
	if len(catalog) == 0 {
		return nil
	}

	reached := g.Reachable(entrySurface(g))

	// Names emitted from reachable code.
	emitted := make(map[string]bool)
	for _, n := range g.Nodes {
		if !reached[n] {
			continue
		}
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !isTracerEmit(fn) || len(call.Args) == 0 {
				return true
			}
			if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				emitted[constant.StringVal(tv.Value)] = true
			}
			return true
		})
	}

	sort.Slice(catalog, func(i, j int) bool { return catalog[i].pos < catalog[j].pos })
	for _, entry := range catalog {
		if emitted[entry.name] {
			continue
		}
		if pass.Marked(traceReachMarker, entry.pos) {
			continue
		}
		pass.Reportf(entry.pos, "trace catalog constant %s (%q) has no reachable Tracer.Emit site: dead catalog entry — emit it, delete it, or annotate //klocs:ignore-tracereach", entry.ident, entry.name)
	}
	return nil
}

// entrySurface returns the module's entry-surface roots — exported
// functions and methods, main, and init. Package-level initializer
// references are rooted by Reachable itself.
func entrySurface(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue
		}
		if n.Obj.Exported() || n.Obj.Name() == "main" || n.Obj.Name() == "init" {
			roots = append(roots, n)
		}
	}
	return roots
}

// isTraceName reports whether t is kloc/internal/trace.Name.
func isTraceName(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Name" && obj.Pkg() != nil && obj.Pkg().Path() == "kloc/internal/trace"
}
