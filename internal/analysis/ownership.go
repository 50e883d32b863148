package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ownership guards the one property the shard pool
// (harness.RunShards) relies on: concurrently running shards share no
// mutable state. Every shard builds its own engine and kernel stack,
// so the only state two shards can reach in common is package-level.
// The analyzer therefore reports any write to a package-level var of
// a kloc/internal/... package outside its initializer expression and
// init() (plus the unexported helpers only init-phase code calls):
// such a var would be written by every shard at once.
//
// Write inference is syntactic but module-wide and alias-aware:
// assignment LHS chains, ++/--, address-of, delete/copy builtins, and
// pointer-receiver method calls on addressable values all count, and
// the `lane := a.lanes[cpu]; lane[cell]++` idiom attributes through
// the local alias. Writes landing in by-value copies are discarded;
// writes through untracked raw pointers are (knowingly) invisible.
var Ownership = &ModuleAnalyzer{
	Name: "ownership",
	Doc:  "forbid writes to internal package-level state outside initialization",
	Run:  runOwnership,
}

// ownershipInScope reports whether a package's vars are checked: every
// internal package (the code a shard executes), plus test fixtures.
func ownershipInScope(path string) bool {
	return strings.HasPrefix(path, "kloc/internal/") || strings.HasPrefix(path, "fixture/")
}

func runOwnership(pass *ModulePass) error {
	m := pass.Module
	writes := collectStateWrites(m)
	initFns := initPhaseNodes(m.Graph)
	for _, pkg := range m.Packages {
		if !ownershipInScope(pkg.Path) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok {
				continue
			}
			for _, w := range writes[v] {
				if w.fn == nil || initFns[w.fn] {
					continue // initializer expression or init-phase code
				}
				pass.Reportf(w.pos, "package-level var %s.%s is written by %s outside its initializer or init(): concurrently running shards would share it — move the state into a per-run struct", pkg.Types.Name(), name, w.fn)
			}
		}
	}
	return nil
}

// initPhaseNodes identifies the functions whose writes count as
// program initialization: package init functions, function literals
// lexically inside them, and — by closure over the call graph —
// unexported helpers called exclusively from init-phase functions
// whose value is never taken (a stored hook runs at an unknown time,
// so taken functions never inherit init phase).
func initPhaseNodes(g *CallGraph) map[*FuncNode]bool {
	isInit := make(map[*FuncNode]bool)
	for _, n := range g.Nodes {
		if n.Obj == nil || n.Obj.Name() != "init" || n.Decl == nil || n.Decl.Recv != nil {
			continue
		}
		isInit[n] = true
		if body := n.Body(); body != nil {
			ast.Inspect(body, func(m ast.Node) bool {
				if lit, ok := m.(*ast.FuncLit); ok {
					if ln := g.NodeOfLit(lit); ln != nil {
						isInit[ln] = true
					}
				}
				return true
			})
		}
	}
	callers := make(map[*FuncNode][]*FuncNode)
	refTaken := make(map[*FuncNode]bool)
	for _, n := range g.Nodes {
		for _, site := range n.Calls {
			for _, m := range site.Callees {
				callers[m] = append(callers[m], n)
			}
		}
		for _, m := range n.Refs {
			refTaken[m] = true
		}
	}
	for _, m := range g.PackageRefs {
		refTaken[m] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if isInit[n] || refTaken[n] || n.Obj == nil || n.Obj.Exported() || n.Obj.Name() == "main" {
				continue
			}
			cs := callers[n]
			if len(cs) == 0 {
				continue
			}
			all := true
			for _, c := range cs {
				if !isInit[c] {
					all = false
					break
				}
			}
			if all {
				isInit[n] = true
				changed = true
			}
		}
	}
	return isInit
}

// A stateWrite is one detected write (or address exposure) of a
// package var or struct field. fn is nil for writes in package-level
// initializer expressions (always init-phase).
type stateWrite struct {
	fn  *FuncNode
	pos token.Pos
}

// collectStateWrites walks every function body in the module and
// attributes writes to the package vars and struct fields they land
// in.
func collectStateWrites(m *Module) map[*types.Var][]stateWrite {
	writes := make(map[*types.Var][]stateWrite)
	g := m.Graph
	seenLit := make(map[*ast.FuncLit]bool)
	for _, n := range g.Nodes {
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		walkWrites(g, n.Pkg.Info, n, n.Decl.Body, writes, seenLit)
	}
	// Function literals at package scope (var hooks) have no enclosing
	// decl; outer literals sort before their nested ones, so each is
	// walked exactly once.
	for _, n := range g.Nodes {
		if n.Lit != nil && !seenLit[n.Lit] {
			seenLit[n.Lit] = true
			walkWrites(g, n.Pkg.Info, n, n.Lit.Body, writes, seenLit)
		}
	}
	return writes
}

// walkWrites records the writes in one body, switching attribution at
// nested function literal boundaries.
func walkWrites(g *CallGraph, info *types.Info, cur *FuncNode, body ast.Node, writes map[*types.Var][]stateWrite, seenLit map[*ast.FuncLit]bool) {
	aliases := localStateAliases(info, body)
	record := func(fn *FuncNode, pos token.Pos, vars []*types.Var) {
		for _, v := range vars {
			writes[v] = append(writes[v], stateWrite{fn: fn, pos: pos})
		}
	}
	var walk func(n ast.Node, fn *FuncNode) bool
	walk = func(n ast.Node, fn *FuncNode) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			seenLit[x] = true
			target := g.NodeOfLit(x)
			if target == nil {
				target = fn
			}
			ast.Inspect(x.Body, func(m ast.Node) bool { return walk(m, target) })
			return false
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				record(fn, lhs.Pos(), stateRefs(info, aliases, lhs, false))
			}
		case *ast.IncDecStmt:
			record(fn, x.Pos(), stateRefs(info, aliases, x.X, false))
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				record(fn, x.Pos(), stateRefs(info, aliases, x.X, false))
			}
		case *ast.CallExpr:
			recordCallWrites(info, aliases, fn, x, record)
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n, cur) })
}

// recordCallWrites handles the two call forms that mutate state:
// delete/copy builtins and pointer-receiver method calls on
// addressable non-pointer bases (k.Stats.Allocs.Inc()).
func recordCallWrites(info *types.Info, aliases map[*types.Var][]*types.Var, fn *FuncNode, call *ast.CallExpr, record func(*FuncNode, token.Pos, []*types.Var)) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[f].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "copy") && len(call.Args) > 0 {
			record(fn, call.Pos(), stateRefs(info, aliases, call.Args[0], true))
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[f]
		if !ok || sel.Kind() != types.MethodVal {
			return
		}
		mfn, ok := sel.Obj().(*types.Func)
		if !ok {
			return
		}
		sig, ok := mfn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return
		}
		if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
			return
		}
		baseT := info.TypeOf(f.X)
		if baseT == nil {
			return
		}
		if _, isPtr := baseT.Underlying().(*types.Pointer); isPtr {
			return
		}
		record(fn, call.Pos(), stateRefs(info, aliases, f.X, false))
	}
}

// isPackageVar reports whether v is a package-level variable.
func isPackageVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// stateRefs resolves an lvalue (assignment LHS, ++/-- operand,
// &-operand, mutated call argument) to the package vars and struct
// fields whose stored state the write lands in. Selector chains
// through struct values attribute to every enclosing field; chains
// stopping at a pointer attribute through a local alias when one is
// known. indexed marks that the write mutates element contents
// (backing arrays are shared even through by-value copies); a plain
// value-typed local root otherwise means the write lands in a local
// copy and the refs are discarded.
func stateRefs(info *types.Info, aliases map[*types.Var][]*types.Var, e ast.Expr, indexed bool) []*types.Var {
	var out []*types.Var
	discard := false
	var walk func(e ast.Expr, indexed bool)
	walk = func(e ast.Expr, indexed bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			walk(x.X, true)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				walk(x.X, indexed)
			}
		case *ast.StarExpr:
			// Write through a raw pointer: target unknown.
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				v, ok := sel.Obj().(*types.Var)
				if !ok {
					return
				}
				out = append(out, v)
				if bt := info.TypeOf(x.X); bt != nil {
					if _, isStruct := bt.Underlying().(*types.Struct); isStruct {
						// The field's storage lives inline in the base
						// value: the write mutates it too.
						walk(x.X, indexed)
						return
					}
				}
				// Pointer (or other indirected) base: attribute through
				// a local alias when the base is one.
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if bv, ok := info.Uses[id].(*types.Var); ok {
						out = append(out, aliases[bv]...)
					}
				}
				return
			}
			// Qualified package var: pkg.Var.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageVar(v) {
				out = append(out, v)
			}
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok {
				return
			}
			if isPackageVar(v) {
				out = append(out, v)
				return
			}
			if extra, ok := aliases[v]; ok {
				out = append(out, extra...)
				return
			}
			switch v.Type().Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
				// Reference-typed local with unknown origin: the write
				// may land in shared heap we cannot attribute.
			default:
				if !indexed {
					// Plain value local: the write mutates a copy.
					discard = true
				}
			}
		}
	}
	walk(e, indexed)
	if discard {
		return nil
	}
	return out
}

// localStateAliases maps reference-typed locals (pointers, slices,
// maps) to the state refs of their defining expressions, so writes
// through the `lane := a.lanes[cpu]; lane[cell]++` idiom still
// attribute to the field. A local with conflicting or unattributable
// definitions resolves to nothing.
func localStateAliases(info *types.Info, body ast.Node) map[*types.Var][]*types.Var {
	aliases := make(map[*types.Var][]*types.Var)
	conflicted := make(map[*types.Var]bool)
	add := func(id *ast.Ident, src ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil || conflicted[v] || v.IsField() || isPackageVar(v) {
			return
		}
		switch v.Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
		default:
			return
		}
		var refs []*types.Var
		if src != nil {
			refs = stateRefs(info, nil, src, true)
		}
		if prev, ok := aliases[v]; ok {
			if !sameVars(prev, refs) {
				conflicted[v] = true
				delete(aliases, v)
			}
			return
		}
		if len(refs) > 0 {
			refs = refs[:1:1] // innermost field only: the element/pointee holder
			aliases[v] = refs
		} else {
			conflicted[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					add(id, s.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range s.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					add(name, vs.Values[i])
				}
			}
		case *ast.RangeStmt:
			if id, ok := s.Value.(*ast.Ident); ok {
				add(id, s.X)
			}
		}
		return true
	})
	return aliases
}

func sameVars(a, b []*types.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
