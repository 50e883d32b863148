package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AllocPair enforces that simulated allocation entry points have
// matching teardown paths, so the kobj lifetime accounting behind the
// paper's Fig 2 (and the kmemleak-analog sanitizer's leak report)
// stays meaningful:
//
//   - a named type declaring an Alloc* method must also declare a
//     Free*/Release*/Teardown* method — an allocator with no give-back
//     path can only leak;
//   - kobj.NewObject must receive the allocator its frame came from,
//     not a literal nil — an object without one detaches its storage
//     from the accounting the moment it dies;
//   - a package that creates kernel objects (calls kobj.NewObject)
//     must also contain a free path: a call to (*kobj.Object).Release
//     and to the ObjectFreed lifecycle hook.
//
// Sites where teardown genuinely lives elsewhere carry a
// //klocs:ignore-allocpair marker with the justification.
var AllocPair = &Analyzer{
	Name: "allocpair",
	Doc:  "require every simulated alloc entry point to have a matching free/teardown path wired to kobj accounting",
	Run:  runAllocPair,
}

const allocPairMarker = "ignore-allocpair"

func runAllocPair(pass *Pass) error {
	checkAllocMethodPairs(pass)
	checkNewObjectSites(pass)
	return nil
}

// checkAllocMethodPairs inspects every package-scope named type.
func checkAllocMethodPairs(pass *Pass) {
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		var firstAlloc *types.Func
		hasTeardown := false
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			switch {
			case strings.HasPrefix(m.Name(), "Alloc"):
				if firstAlloc == nil {
					firstAlloc = m
				}
			case strings.HasPrefix(m.Name(), "Free"),
				strings.HasPrefix(m.Name(), "Release"),
				strings.HasPrefix(m.Name(), "Teardown"):
				hasTeardown = true
			}
		}
		if firstAlloc == nil || hasTeardown {
			continue
		}
		if pass.Marked(allocPairMarker, firstAlloc.Pos()) || pass.Marked(allocPairMarker, tn.Pos()) {
			continue
		}
		pass.Reportf(firstAlloc.Pos(), "%s declares %s but no Free*/Release*/Teardown* method: every allocation entry point needs a matching teardown path (annotate //klocs:ignore-allocpair if teardown lives elsewhere)", tn.Name(), firstAlloc.Name())
	}
}

// checkNewObjectSites audits kobj.NewObject calls and the package's
// free-path presence.
func checkNewObjectSites(pass *Pass) {
	info := pass.Pkg.Info
	var newObjectSites []*ast.CallExpr
	sawRelease := false
	sawObjectFreed := false
	inspectFiles(pass.Pkg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "kloc/internal/kobj" && fn.Name() == "NewObject":
			newObjectSites = append(newObjectSites, call)
			// Signature: NewObject(id, t, frame, born, from). A literal
			// nil allocator orphans the storage from the accounting.
			if len(call.Args) == 5 && isNilIdent(info, call.Args[4]) && !pass.Marked(allocPairMarker, call.Pos()) {
				pass.Reportf(call.Args[4].Pos(), "kobj.NewObject with nil allocator: the object's storage would never return to it; pass the allocator the frame came from (annotate //klocs:ignore-allocpair if teardown is truly external)")
			}
		case fn.Name() == "Release" && isKobjObjectMethod(fn):
			sawRelease = true
		case fn.Name() == "ObjectFreed":
			sawObjectFreed = true
		}
		return true
	})
	if len(newObjectSites) == 0 {
		return
	}
	first := newObjectSites[0]
	// Marked is consulted per missing path, once the diagnostic is
	// certain, so the suppression audit sees a real hit or none.
	if !sawRelease && !pass.Marked(allocPairMarker, first.Pos()) {
		pass.Reportf(first.Pos(), "package %s creates kernel objects (kobj.NewObject) but never calls (*kobj.Object).Release: allocation entry points need an in-package teardown path", pass.Pkg.Types.Name())
	}
	if !sawObjectFreed && !pass.Marked(allocPairMarker, first.Pos()) {
		pass.Reportf(first.Pos(), "package %s creates kernel objects (kobj.NewObject) but never fires the ObjectFreed lifecycle hook: frees must reach the kobj lifetime accounting", pass.Pkg.Types.Name())
	}
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// isKobjObjectMethod reports whether fn is a method of
// kloc/internal/kobj.Object.
func isKobjObjectMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Object" && obj.Pkg() != nil && obj.Pkg().Path() == "kloc/internal/kobj"
}
