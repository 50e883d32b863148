package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// TraceReach keeps the tracepoint catalog truthful in both directions.
// The catalog is the set of package-level trace.Name constants in the
// analyzed packages (internal/trace's, in a module run).
//
//   - Every Tracer.Emit site must pass a constant name from the
//     catalog. A typo'd or ad-hoc name creates an event no
//     -trace-events pattern enables and no OBSERVABILITY.md section
//     documents; a non-constant name defeats static auditing of the
//     catalog entirely.
//   - Every catalog constant must have an Emit site reachable from the
//     module's entry surface: exported functions and methods, main,
//     init, and functions referenced from package-level initializers.
//     A constant with no reachable emitter is a dead entry — it shows
//     up in trace.Names(), -trace-events patterns match it, and
//     OBSERVABILITY.md documents it, but no run can ever produce the
//     event. An Emit site buried in an unexported function nothing
//     calls does not keep its entry alive.
//
// One walk over every call-graph node's body does both: it checks each
// Emit site's name, and a reachable node's sites mark their names as
// emitted. Catalog constants kept intentionally (e.g. reserved for an
// in-flight subsystem) carry //klocs:ignore-tracereach with the
// justification.
var TraceReach = &ModuleAnalyzer{
	Name: "tracereach",
	Doc:  "require Tracer.Emit names to be internal/trace catalog constants, and every catalog constant to be emitted from reachable code",
	Run:  runTraceReach,
}

const traceReachMarker = "ignore-tracereach"

func runTraceReach(pass *ModulePass) error {
	g := pass.Module.Graph

	type catalogEntry struct {
		name  string
		ident string
		pos   token.Pos
	}
	var catalog []catalogEntry
	registered := make(map[string]bool)
	for _, pkg := range pass.Module.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !isTraceType(c.Type(), "Name") || c.Val().Kind() != constant.String {
				continue
			}
			entry := catalogEntry{name: constant.StringVal(c.Val()), ident: name, pos: c.Pos()}
			catalog = append(catalog, entry)
			registered[entry.name] = true
		}
	}

	reached := g.Reachable(entrySurface(g))
	emitted := make(map[string]bool)
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				// A nested literal is its own node, walked on its own.
				return false
			case *ast.CallExpr:
				sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || !isTracerEmit(fn) || len(m.Args) == 0 {
					return true
				}
				arg := m.Args[0]
				tv, ok := info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(), "Tracer.Emit with non-constant event name: use a trace.Name constant from the internal/trace catalog so enables and documentation can find it")
					return true
				}
				name := constant.StringVal(tv.Value)
				if !registered[name] {
					pass.Reportf(arg.Pos(), "Tracer.Emit with unregistered event name %q: not in the internal/trace catalog (see trace.Names and OBSERVABILITY.md)", name)
				} else if reached[n] {
					emitted[name] = true
				}
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

// isTracerEmit reports whether fn is the Emit method of
// kloc/internal/trace.Tracer.
func isTracerEmit(fn *types.Func) bool {
	if fn.Name() != "Emit" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	return isTraceType(t, "Tracer")
}

// isTraceType reports whether t is the named type kloc/internal/trace.<name>.
func isTraceType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "kloc/internal/trace"
}
