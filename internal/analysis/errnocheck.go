package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrnoCheck forbids silently discarding error returns from the
// module's own functions. The fault plane injects errno-style errors
// (ENOMEM, EIO, EAGAIN, EBUSY) at the alloc/fs/blockdev/netsim/
// pressure fault points; a dropped error there turns an injected fault
// into silent corruption instead of a degraded-but-accounted
// operation. Errors must be returned, wrapped, checked, or explicitly
// sunk with a //klocs:ignore-errno marker carrying the justification.
//
// Scope is deliberately the module (and the package under test): the
// standard library's error discipline is vetted elsewhere, and
// flagging fmt.Println would drown the real signal.
var ErrnoCheck = &Analyzer{
	Name: "errnocheck",
	Doc:  "forbid discarding error returns from the module's alloc/fs/blockdev/netsim/pressure paths",
	Run:  runErrnoCheck,
}

const errnoMarker = "ignore-errno"

func runErrnoCheck(pass *Pass) error {
	inspectFiles(pass.Pkg, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			checkDiscardedCall(pass, s.X, "discarded")
		case *ast.GoStmt:
			checkDiscardedCall(pass, s.Call, "discarded by go statement")
		case *ast.DeferStmt:
			checkDiscardedCall(pass, s.Call, "discarded by defer")
		case *ast.AssignStmt:
			checkBlankErrAssign(pass, s)
		}
		return true
	})
	return nil
}

// checkDiscardedCall flags a call statement whose module-internal
// callee returns an error that nothing receives.
func checkDiscardedCall(pass *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := moduleCallee(pass, call)
	if fn == nil {
		return
	}
	if idx := errorResultIndex(fn); idx < 0 {
		return
	}
	if pass.Marked(errnoMarker, call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(), "error result of %s %s: errno-style errors must propagate (return, wrap, or handle it) or be sunk explicitly with //klocs:ignore-errno", calleeLabel(fn), how)
}

// checkBlankErrAssign flags assignments where an error result lands
// on the blank identifier: `_ = f()` and `n, _ := g()`.
func checkBlankErrAssign(pass *Pass, s *ast.AssignStmt) {
	// Only a single call on the right maps LHS positions onto result
	// positions.
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := moduleCallee(pass, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(s.Lhs) {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		id, ok := s.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if pass.Marked(errnoMarker, id.Pos()) {
			continue
		}
		pass.Reportf(id.Pos(), "error result of %s assigned to _: errno-style errors must propagate or be sunk explicitly with //klocs:ignore-errno", calleeLabel(fn))
	}
}

// moduleCallee resolves the called function and returns it only when
// it belongs to this module or to the package under analysis.
func moduleCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if path == pass.Pkg.Path {
		return fn
	}
	if path == "kloc" || strings.HasPrefix(path, "kloc/") {
		return fn
	}
	return nil
}

// errorResultIndex returns the index of the first error-typed result,
// or -1.
func errorResultIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

func calleeLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
