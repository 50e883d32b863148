package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the whole-module call graph the interprocedural
// analyzers (lifecycle, errnoflow, tracereach) run over. The graph is
// source-level, matching the loader: nodes are the module's declared
// functions, methods, and function literals; edges are resolved per
// call site. Three resolution strategies cover the module's idioms:
//
//   - static: direct calls to a named function or method;
//   - interface: calls through an interface-typed receiver resolve,
//     class-hierarchy-analysis style, to every module type whose
//     method set implements the interface (this is how the pressure
//     plane's Shrinker registrations and the allocators behind
//     kobj.Freer stay visible to the analyzers);
//   - dynamic: calls through function-typed values (RunConfig hooks,
//     struct fields, locals). These get no callee edges; instead every
//     function whose value is taken somewhere is recorded as a Ref of
//     the taking function, so reachability treats storing a hook as
//     keeping its target alive — the same over-approximation Go's
//     deadcode tool makes.
//
// A method of an instantiated generic type, and an explicit
// instantiation of a generic function, resolve to the generic
// declaration (types.Func.Origin), and the callees of calls made in
// package-level initializers join PackageRefs, since those calls run
// when the package loads.
//
// Bottom-up traversal for summary fixpoints comes from Tarjan SCCs,
// which this implementation emits callee-first.

// CallKind classifies how a call site was resolved.
type CallKind uint8

// Call site kinds.
const (
	// CallStatic is a direct call to a known function or method.
	CallStatic CallKind = iota
	// CallInterface is a call through an interface method, resolved to
	// the module implementations by class-hierarchy analysis.
	CallInterface
	// CallDynamic is a call through a function-typed value; targets are
	// unknown (covered by Refs-based reachability).
	CallDynamic
	// CallExternal targets a function outside the analyzed module
	// (standard library or unexported runtime machinery).
	CallExternal
)

// A FuncNode is one function in the module call graph: a declared
// function or method (Obj/Decl set) or a function literal (Lit set).
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package

	// Calls lists the node's call sites in source order.
	Calls []*CallSite
	// Refs lists module functions whose value this function takes
	// without calling (method values, hook assignments, func idents
	// passed as arguments).
	Refs []*FuncNode
}

// A CallSite is one resolved call expression inside a function.
type CallSite struct {
	Call *ast.CallExpr
	Kind CallKind
	// Callees are the resolved module targets: exactly one for
	// CallStatic, zero or more for CallInterface, none for
	// CallDynamic/CallExternal.
	Callees []*FuncNode
}

// Body returns the function's body block (nil for bodyless decls).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the function's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// String labels the node for diagnostics: "pkg.Func", "pkg.T.Method",
// or "pkg.func@line" for literals.
func (n *FuncNode) String() string {
	pkgName := ""
	if n.Pkg != nil {
		pkgName = n.Pkg.Types.Name() + "."
	}
	if n.Lit != nil {
		pos := n.Pkg.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("%sfunc@%d", pkgName, pos.Line)
	}
	if n.Obj != nil {
		if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return pkgName + recvTypeName(sig) + "." + n.Obj.Name()
		}
		return pkgName + n.Obj.Name()
	}
	return pkgName + "?"
}

// recvTypeName names a method's receiver type, pointer stripped.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// A CallGraph holds the module's functions and resolved call edges.
type CallGraph struct {
	// Nodes lists every function in deterministic (file, offset) order.
	Nodes []*FuncNode
	// PackageRefs are functions referenced or called from package-level
	// initializers (var blocks): alive as soon as the package loads.
	PackageRefs []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// namedTypes are the module's package-level named types, for
	// class-hierarchy interface resolution.
	namedTypes []*types.Named
}

// node returns the module node declaring fn, mapping an instantiated
// generic method or function to its declaration (nil when fn is not a
// module function).
func (g *CallGraph) node(fn *types.Func) *FuncNode {
	return g.byObj[fn.Origin()]
}

// BuildCallGraph constructs the call graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
	}
	// Pass 1: nodes for every declared function and literal, and the
	// named-type universe for interface resolution.
	for _, pkg := range pkgs {
		g.collectNodes(pkg)
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.namedTypes = append(g.namedTypes, named)
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i].Pkg.Fset.Position(g.Nodes[i].Pos()), g.Nodes[j].Pkg.Fset.Position(g.Nodes[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	// Pass 2: edges.
	for _, pkg := range pkgs {
		g.collectEdges(pkg)
	}
	return g
}

// collectNodes creates FuncNodes for every FuncDecl and FuncLit of pkg.
func (g *CallGraph) collectNodes(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					return true
				}
				node := &FuncNode{Obj: obj, Decl: fn, Pkg: pkg}
				g.byObj[obj] = node
				g.Nodes = append(g.Nodes, node)
			case *ast.FuncLit:
				node := &FuncNode{Lit: fn, Pkg: pkg}
				g.byLit[fn] = node
				g.Nodes = append(g.Nodes, node)
			}
			return true
		})
	}
}

// collectEdges walks each file attributing calls and references to the
// innermost enclosing function node (or to PackageRefs at file scope).
func (g *CallGraph) collectEdges(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok || d.Body == nil {
					continue
				}
				if node := g.byObj[obj]; node != nil {
					g.walkBody(pkg, node, d.Body)
				}
			case *ast.GenDecl:
				// Package-level initializers: function values referenced
				// here are alive from package load.
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						g.walkBody(pkg, nil, v)
					}
				}
			}
		}
	}
}

// walkBody visits one function body (or initializer expression),
// descending into nested literals with their own nodes.
func (g *CallGraph) walkBody(pkg *Package, node *FuncNode, root ast.Node) {
	// calleeIdents marks the exact identifier used as the callee of a
	// direct call, so it is not double-counted as a value reference.
	calleeIdents := make(map[*ast.Ident]bool)
	// ref attributes a taken function value to the innermost enclosing
	// function, or to the package's load-time references at file scope.
	ref := func(cur, target *FuncNode) {
		if target == nil {
			return
		}
		if cur == nil {
			g.PackageRefs = append(g.PackageRefs, target)
			return
		}
		cur.Refs = append(cur.Refs, target)
	}
	var walk func(n ast.Node, cur *FuncNode) bool
	walk = func(n ast.Node, cur *FuncNode) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := g.byLit[n]
			// The literal itself is a value the enclosing function takes.
			ref(cur, lit)
			ast.Inspect(n.Body, func(m ast.Node) bool { return walk(m, lit) })
			return false
		case *ast.CallExpr:
			g.resolveCall(pkg, cur, n, calleeIdents)
			return true
		case *ast.Ident:
			if calleeIdents[n] {
				return true
			}
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				ref(cur, g.node(fn))
			}
			return true
		}
		return true
	}
	ast.Inspect(root, func(n ast.Node) bool { return walk(n, node) })
}

// resolveCall classifies one call site and attaches it to cur; at
// package scope its callees join PackageRefs instead.
func (g *CallGraph) resolveCall(pkg *Package, cur *FuncNode, call *ast.CallExpr, calleeIdents map[*ast.Ident]bool) {
	site := &CallSite{Call: call}
	fun := ast.Unparen(call.Fun)
	// An explicit instantiation, F[T](...) or pkg.F[K, V](...), calls
	// the generic function its base names.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = genericBase(pkg.Info, fun, ix.X)
	case *ast.IndexListExpr:
		fun = genericBase(pkg.Info, fun, ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		calleeIdents[f] = true
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func:
			if target := g.node(obj); target != nil {
				site.Kind, site.Callees = CallStatic, []*FuncNode{target}
			} else {
				site.Kind = CallExternal
			}
		case *types.Var:
			site.Kind = CallDynamic
		default:
			// Builtin, type conversion, or unresolved: not a call edge.
			return
		}
	case *ast.SelectorExpr:
		calleeIdents[f.Sel] = true
		if sel, ok := pkg.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				site.Kind = CallDynamic
			case types.MethodVal, types.MethodExpr:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				if types.IsInterface(sel.Recv()) {
					site.Kind = CallInterface
					site.Callees = g.implementersOf(sel.Recv(), fn.Name())
				} else if target := g.node(fn); target != nil {
					site.Kind, site.Callees = CallStatic, []*FuncNode{target}
				} else {
					site.Kind = CallExternal
				}
			}
		} else {
			// Package-qualified: pkg.F(...) or pkg.Var(...).
			switch obj := pkg.Info.Uses[f.Sel].(type) {
			case *types.Func:
				if target := g.node(obj); target != nil {
					site.Kind, site.Callees = CallStatic, []*FuncNode{target}
				} else {
					site.Kind = CallExternal
				}
			case *types.Var:
				site.Kind = CallDynamic
			default:
				return
			}
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: edge added after the walk reaches
		// the literal (its node exists already).
		if target := g.byLit[f]; target != nil {
			site.Kind, site.Callees = CallStatic, []*FuncNode{target}
		}
	default:
		// Conversions, index expressions over func slices, etc.
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return // type conversion
		}
		site.Kind = CallDynamic
	}
	if cur == nil {
		g.PackageRefs = append(g.PackageRefs, site.Callees...)
		return
	}
	cur.Calls = append(cur.Calls, site)
}

// genericBase returns the base of index expression e when the base
// names a function, which makes e an instantiation of it, and e
// otherwise (an index into a slice or map of function values).
func genericBase(info *types.Info, e, base ast.Expr) ast.Expr {
	base = ast.Unparen(base)
	id, _ := base.(*ast.Ident)
	if sel, ok := base.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if _, ok := info.Uses[id].(*types.Func); ok {
		return base
	}
	return e
}

// implementersOf resolves an interface method to every module named
// type implementing the interface, class-hierarchy style.
func (g *CallGraph) implementersOf(recv types.Type, method string) []*FuncNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var targets []*FuncNode
	for _, named := range g.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if target := g.node(fn); target != nil {
				targets = append(targets, target)
			}
		}
	}
	return targets
}

// SCCs returns the strongly connected components of the call edges in
// bottom-up (callee-first) order — the traversal order for summary
// fixpoints. Tarjan's algorithm emits components in reverse
// topological order of the condensation, which is exactly that.
func (g *CallGraph) SCCs() [][]*FuncNode {
	index := make(map[*FuncNode]int, len(g.Nodes))
	lowlink := make(map[*FuncNode]int, len(g.Nodes))
	onStack := make(map[*FuncNode]bool, len(g.Nodes))
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	var strongconnect func(n *FuncNode)
	strongconnect = func(n *FuncNode) {
		index[n] = next
		lowlink[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, site := range n.Calls {
			for _, m := range site.Callees {
				if _, seen := index[m]; !seen {
					strongconnect(m)
					if lowlink[m] < lowlink[n] {
						lowlink[n] = lowlink[m]
					}
				} else if onStack[m] && index[m] < lowlink[n] {
					lowlink[n] = index[m]
				}
			}
		}
		if lowlink[n] == index[n] {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}

// Reachable computes the functions reachable from roots, following
// call edges and value references (a stored hook keeps its target
// reachable). PackageRefs are implicitly rooted: package initializers
// run whenever the package loads.
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]bool {
	reached := make(map[*FuncNode]bool)
	var work []*FuncNode
	add := func(n *FuncNode) {
		if n != nil && !reached[n] {
			reached[n] = true
			work = append(work, n)
		}
	}
	for _, n := range roots {
		add(n)
	}
	for _, n := range g.PackageRefs {
		add(n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, site := range n.Calls {
			for _, m := range site.Callees {
				add(m)
			}
		}
		for _, m := range n.Refs {
			add(m)
		}
	}
	return reached
}
