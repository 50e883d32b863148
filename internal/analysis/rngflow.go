package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RNGFlow guards the property the whole reproduction gates on: same
// seed, byte-identical traces. That holds only if every random stream
// has exactly one owner — a stream drawn by two consumers couples
// their draw orders, so reordering one perturbs the other even though
// each draw is individually deterministic. The analyzer enforces the
// chaos plane's per-schedule stream discipline module-wide, in two
// rules:
//
//   - construction: sim.RNG values are created by sim.NewRNG or
//     forked from a parent with Fork — never assembled as composite
//     literals outside package sim, which would bypass the seeding
//     path;
//   - flow: within a function, once a stream is handed to an owner
//     (stored into a field, global, container, or channel, or passed
//     to a callee that retains it — computed bottom-up over the call
//     graph, interface calls joining all implementations), handing it
//     to a second owner or drawing from it again is a diagnostic: fork
//     a child stream instead. Events are matched in source order, an
//     approximation that is exact for the module's straight-line
//     setup code.
//
// False positives carry //klocs:ignore-rngflow with a justification.
var RNGFlow = &ModuleAnalyzer{
	Name: "rngflow",
	Doc:  "require sim.RNG streams to be forked explicitly and confined to one owner",
	Run:  runRNGFlow,
}

const rngFlowMarker = "ignore-rngflow"

// rngSummary is the bottom-up retention summary: which incoming
// streams a function stores beyond the call.
type rngSummary struct {
	recvRetains  bool
	paramRetains []bool
}

func (s rngSummary) eq(o rngSummary) bool {
	if s.recvRetains != o.recvRetains || len(s.paramRetains) != len(o.paramRetains) {
		return false
	}
	for i := range s.paramRetains {
		if s.paramRetains[i] != o.paramRetains[i] {
			return false
		}
	}
	return true
}

func runRNGFlow(pass *ModulePass) error {
	m := pass.Module
	labels := moduleStateLabels(m)

	// Rule 1: no composite-literal construction outside the RNG type's
	// declaring package (its constructor is the seeding path).
	for _, pkg := range m.Packages {
		info := pkg.Info
		inspectFiles(pkg, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := info.TypeOf(lit)
			if t == nil || !isRNGType(t) || rngDeclaringPath(t) == pkg.Path {
				return true
			}
			if !pass.Marked(rngFlowMarker, lit.Pos()) {
				pass.Reportf(lit.Pos(), "sim.RNG composite literal bypasses the seeding discipline: construct streams with sim.NewRNG or parent.Fork()")
			}
			return true
		})
	}

	// Rule 2: one owner per stream, fork for the next.
	g := m.Graph
	summaries := FixpointSummaries(g, func(n *FuncNode, get func(*FuncNode) (rngSummary, bool)) rngSummary {
		return computeRNGSummary(n, g, get)
	}, func(old, new rngSummary) bool { return !old.eq(new) })
	resolver := func(n *FuncNode) func(*ast.CallExpr, int, bool) (bool, string) {
		sites := make(map[*ast.CallExpr]*CallSite, len(n.Calls))
		for _, site := range n.Calls {
			sites[site.Call] = site
		}
		return func(call *ast.CallExpr, idx int, recv bool) (bool, string) {
			site, ok := sites[call]
			if !ok {
				return false, ""
			}
			for _, callee := range site.Callees {
				sum := summaries[callee]
				if recv && sum.recvRetains {
					return true, callee.String()
				}
				if !recv && idx < len(sum.paramRetains) && sum.paramRetains[idx] {
					return true, callee.String()
				}
			}
			return false, ""
		}
	}
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		vars := rngLocalVars(n)
		if len(vars) == 0 {
			continue
		}
		events := collectRNGEvents(n, vars, labels, resolver(n))
		var order []*types.Var
		for v := range events {
			order = append(order, v)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].Pos() < order[j].Pos() })
		for _, v := range order {
			evs := events[v]
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
			retainedBy := ""
			for _, ev := range evs {
				switch ev.kind {
				case rngDef:
					retainedBy = ""
				case rngRetain:
					if retainedBy != "" {
						if !pass.Marked(rngFlowMarker, ev.pos) {
							pass.Reportf(ev.pos, "RNG stream %s is handed to a second owner (%s) after %s already took it — fork the stream instead (parent.Fork())", v.Name(), ev.owner, retainedBy)
						}
						continue
					}
					retainedBy = ev.owner
				case rngUse:
					if retainedBy != "" && !pass.Marked(rngFlowMarker, ev.pos) {
						pass.Reportf(ev.pos, "RNG stream %s is used after %s took ownership of it — the owner must be the only reader; fork a child stream for this use", v.Name(), retainedBy)
					}
				}
			}
		}
	}
	return nil
}

// isRNGType reports whether t is (a pointer to) the simulator's RNG
// stream type. Fixture packages may declare their own RNG stand-in.
func isRNGType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "RNG" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "kloc/internal/sim" || strings.HasPrefix(path, "fixture/")
}

// rngDeclaringPath returns the package path declaring the RNG type
// behind t (pointer stripped). Call only after isRNGType.
func rngDeclaringPath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path()
	}
	return ""
}

// rngLocalVars collects the RNG-typed parameters, receiver, and locals
// of one function.
func rngLocalVars(n *FuncNode) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	info := n.Pkg.Info
	add := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := info.Defs[id].(*types.Var); ok && isRNGType(v.Type()) {
			vars[v] = true
		}
	}
	if n.Decl != nil {
		if n.Decl.Recv != nil {
			for _, f := range n.Decl.Recv.List {
				for _, name := range f.Names {
					add(name)
				}
			}
		}
		for _, f := range n.Decl.Type.Params.List {
			for _, name := range f.Names {
				add(name)
			}
		}
	}
	if n.Lit != nil {
		for _, f := range n.Lit.Type.Params.List {
			for _, name := range f.Names {
				add(name)
			}
		}
	}
	body := n.Body()
	if body != nil {
		ast.Inspect(body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // its params/locals belong to its own node
			}
			if id, ok := m.(*ast.Ident); ok {
				add(id)
			}
			return true
		})
	}
	return vars
}

type rngEventKind uint8

const (
	rngDef rngEventKind = iota
	rngRetain
	rngUse
)

// rngEvent is one ordered event on a tracked stream variable.
type rngEvent struct {
	kind  rngEventKind
	pos   token.Pos
	owner string
}

// collectRNGEvents classifies every occurrence of the tracked vars by
// its syntactic context: definitions reset the stream, stores into
// fields/globals/containers/channels (or into callees that retain, per
// argRetains) transfer ownership, method draws and argument passes are
// uses. Occurrences inside nested function literals still count — a
// closure drawing from a stream it captured is a real use.
func collectRNGEvents(n *FuncNode, vars map[*types.Var]bool, labels map[*types.Var]string, argRetains func(call *ast.CallExpr, idx int, recv bool) (bool, string)) map[*types.Var][]rngEvent {
	info := n.Pkg.Info
	events := make(map[*types.Var][]rngEvent)
	add := func(v *types.Var, kind rngEventKind, pos token.Pos, owner string) {
		events[v] = append(events[v], rngEvent{kind: kind, pos: pos, owner: owner})
	}
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil {
			v, _ = info.Defs[id].(*types.Var)
		}
		if v != nil && vars[v] {
			return v
		}
		return nil
	}
	// retainTargetLabel names where a store lands, for the diagnostic.
	retainTargetLabel := func(lhs ast.Expr) (string, bool) {
		refs := stateRefs(info, lhs)
		if len(refs) > 0 {
			if l, ok := labels[refs[0]]; ok {
				return l, true
			}
			return refs[0].Name(), true
		}
		switch ast.Unparen(lhs).(type) {
		case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
			return "heap storage", true
		}
		return "", false
	}
	handleAssign := func(lhs, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			// Tuple assignment from a call: treat RNG-typed LHS idents as
			// definitions; no tracked RHS idents to classify.
			for _, l := range lhs {
				if v := varOf(l); v != nil {
					add(v, rngDef, l.Pos(), "")
				}
			}
			return
		}
		for i := range lhs {
			if v := varOf(lhs[i]); v != nil {
				add(v, rngDef, lhs[i].Pos(), "")
			}
			if v := varOf(rhs[i]); v != nil {
				if owner, isRetain := retainTargetLabel(lhs[i]); isRetain {
					add(v, rngRetain, rhs[i].Pos(), owner)
				}
			}
		}
	}
	var walk func(m ast.Node) bool
	walk = func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			handleAssign(x.Lhs, x.Rhs)
			// Re-walk the RHS expressions themselves: a call nested in
			// the assignment still retains/uses its arguments. Bare
			// idents have no walk case, so nothing double-counts.
			for _, rhs := range x.Rhs {
				ast.Inspect(rhs, walk)
			}
			return false
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Names) == len(vs.Values) {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					handleAssign(lhs, vs.Values)
				}
				for _, val := range vs.Values {
					ast.Inspect(val, walk)
				}
			}
			return false
		case *ast.SendStmt:
			if v := varOf(x.Value); v != nil {
				add(v, rngRetain, x.Value.Pos(), "a channel")
			}
		case *ast.KeyValueExpr:
			if v := varOf(x.Value); v != nil {
				add(v, rngRetain, x.Value.Pos(), "a composite literal")
			}
			return true
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if v := varOf(el); v != nil {
					add(v, rngRetain, el.Pos(), "a composite literal")
				}
			}
			return true
		case *ast.CallExpr:
			// Receiver draw: r.Uint64(), r.Fork() — a use, never a
			// retain (RNG methods do not store their receiver).
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if v := varOf(sel.X); v != nil {
					if isRNGType(info.TypeOf(sel.X)) {
						add(v, rngUse, sel.X.Pos(), "")
					} else if retains, who := argRetains(x, 0, true); retains {
						add(v, rngRetain, sel.X.Pos(), who)
					} else {
						add(v, rngUse, sel.X.Pos(), "")
					}
				}
			}
			for i, arg := range x.Args {
				if v := varOf(arg); v != nil {
					if retains, who := argRetains(x, i, false); retains {
						add(v, rngRetain, arg.Pos(), who)
					} else {
						add(v, rngUse, arg.Pos(), "")
					}
				}
			}
			// Re-walk the arguments: a nested call (keep(a, root.Fork()))
			// classifies its own receiver and arguments. Direct idents
			// were classified above and have no walk case of their own.
			for _, arg := range x.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.RangeStmt:
			if v := varOf(x.Value); v != nil {
				add(v, rngDef, x.Value.Pos(), "")
			}
		}
		return true
	}
	body := n.Body()
	if body != nil {
		ast.Inspect(body, walk)
	}
	return events
}

// computeRNGSummary derives whether a function retains its RNG-typed
// receiver or parameters, composing callee summaries through get.
func computeRNGSummary(n *FuncNode, g *CallGraph, get func(*FuncNode) (rngSummary, bool)) rngSummary {
	var sum rngSummary
	var recvVar *types.Var
	var paramVars []*types.Var
	info := n.Pkg.Info
	grab := func(fl *ast.FieldList, recv bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				v, _ := info.Defs[name].(*types.Var)
				if recv {
					recvVar = v
					continue
				}
				paramVars = append(paramVars, v)
			}
			if !recv && len(f.Names) == 0 {
				paramVars = append(paramVars, nil) // unnamed: cannot retain
			}
		}
	}
	if n.Decl != nil {
		grab(n.Decl.Recv, true)
		grab(n.Decl.Type.Params, false)
	}
	if n.Lit != nil {
		grab(n.Lit.Type.Params, false)
	}
	sum.paramRetains = make([]bool, len(paramVars))
	body := n.Body()
	if body == nil {
		return sum
	}
	tracked := make(map[*types.Var]bool)
	if recvVar != nil && isRNGType(recvVar.Type()) {
		tracked[recvVar] = true
	}
	for _, v := range paramVars {
		if v != nil && isRNGType(v.Type()) {
			tracked[v] = true
		}
	}
	if len(tracked) == 0 {
		return sum
	}
	sites := make(map[*ast.CallExpr]*CallSite, len(n.Calls))
	for _, site := range n.Calls {
		sites[site.Call] = site
	}
	argRetains := func(call *ast.CallExpr, idx int, recv bool) (bool, string) {
		site, ok := sites[call]
		if !ok {
			return false, ""
		}
		for _, callee := range site.Callees {
			if s, ok := get(callee); ok {
				if recv && s.recvRetains {
					return true, callee.String()
				}
				if !recv && idx < len(s.paramRetains) && s.paramRetains[idx] {
					return true, callee.String()
				}
			}
		}
		return false, ""
	}
	events := collectRNGEvents(n, tracked, nil, argRetains)
	retained := func(v *types.Var) bool {
		for _, ev := range events[v] {
			if ev.kind == rngRetain {
				return true
			}
		}
		return false
	}
	if recvVar != nil && tracked[recvVar] {
		sum.recvRetains = retained(recvVar)
	}
	for i, v := range paramVars {
		if v != nil && tracked[v] {
			sum.paramRetains[i] = retained(v)
		}
	}
	return sum
}

// moduleStateLabels names every package var ("pkg.Var") and struct
// field ("pkg.Type.field") in the module, for diagnostics.
func moduleStateLabels(m *Module) map[*types.Var]string {
	labels := make(map[*types.Var]string)
	for _, pkg := range m.Packages {
		pkgName := pkg.Types.Name()
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				labels[obj] = pkgName + "." + name
			case *types.TypeName:
				if obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					labels[st.Field(i)] = pkgName + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}
	return labels
}

// isPackageVar reports whether v is a package-level variable.
func isPackageVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// stateRefs resolves an lvalue to the package vars and struct fields
// whose stored state the write lands in, innermost first. Selector
// chains through struct values attribute to every enclosing field; a
// chain stops at a pointer, since the write lands in the pointee, not
// in the field holding the pointer. An index marks that the write
// mutates element contents (backing arrays are shared even through
// by-value copies); a plain value-typed local root otherwise means the
// write lands in a local copy and the refs are discarded.
func stateRefs(info *types.Info, e ast.Expr) []*types.Var {
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
	walk(e, false)
	if discard {
		return nil
	}
	return out
}
