package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoDeterminism forbids the three ways wall-clock or scheduler
// nondeterminism leaks into the simulation, whose figures must be
// byte-identical at a fixed seed (the property PR 1 repaired after a
// map-order leak made redis+klocs runs vary, and the trace plane's
// exports promise outright):
//
//   - wall-clock time: time.Now, time.Sleep, and friends — the
//     simulator runs in virtual time only. The single sanctioned
//     exception is a time.Now call under a //klocs:wallclock marker:
//     the host-speed benchmark (bench/) must read the wall clock to
//     time the simulator from outside, and none of that reading
//     reaches simulation state;
//   - ambient randomness: importing math/rand or math/rand/v2 —
//     internal/sim's seeded RNG is the only sanctioned source;
//   - map-iteration order: ranging over a map is flagged unless the
//     loop provably cannot let the order escape — the body is a
//     commutative accumulation, or it only collects elements that the
//     very next statement sorts — or the site carries a
//     //klocs:unordered marker with its justification.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock time, global math/rand, and map-iteration order escaping into state or output",
	Run:  runNoDeterminism,
}

// forbiddenTimeFuncs are the wall-clock and real-sleep entry points of
// package time. Types (time.Duration) and pure constructors remain
// usable.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func runNoDeterminism(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "import of %s: ambient randomness breaks run reproducibility; draw from internal/sim's seeded RNG instead", imp.Path.Value)
			}
		}
	}
	inspectFiles(pass.Pkg, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if forbiddenTimeFuncs[fn.Name()] {
			// Marked comes last, and only for time.Now: the diagnostic is
			// certain here, so a positive answer proves the marker still
			// suppresses something (the suppression audit depends on that
			// ordering). Sleeps and timers have no measurement use and stay
			// forbidden outright.
			if fn.Name() == "Now" && pass.Marked("wallclock", sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(), "call to time.%s: the simulator runs in virtual time (sim.Engine); wall-clock reads are nondeterministic", fn.Name())
		}
		return true
	})
	checkMapRanges(pass)
	return nil
}

// checkMapRanges walks statement lists so each range statement can see
// its successor (the collect-then-sort idiom needs it).
func checkMapRanges(pass *Pass) {
	inspectFiles(pass.Pkg, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for i, stmt := range list {
			rs, ok := stmt.(*ast.RangeStmt)
			if !ok {
				continue
			}
			tv, ok := pass.Pkg.Info.Types[rs.X]
			if !ok {
				continue
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				continue
			}
			var next ast.Stmt
			if i+1 < len(list) {
				next = list[i+1]
			}
			checkOneMapRange(pass, rs, next)
		}
		return true
	})
}

func checkOneMapRange(pass *Pass, rs *ast.RangeStmt, next ast.Stmt) {
	c := &orderChecker{info: pass.Pkg.Info, locals: make(map[types.Object]bool)}
	c.noteRangeVars(rs)
	if c.commutativeBody(rs.Body) {
		return
	}
	// Collect-then-sort: the body only appends map elements to slices,
	// and the statement immediately after the loop sorts.
	if c.collectBody(rs.Body) && isSortCall(pass.Pkg.Info, next) {
		return
	}
	// Marked comes last: the diagnostic is certain here, so a positive
	// answer proves the marker still suppresses something (the
	// suppression audit depends on that ordering).
	if pass.Marked("unordered", rs.Pos()) {
		return
	}
	pass.Reportf(rs.Pos(), "range over map: iteration order is nondeterministic and the body lets it escape; sort the keys first, keep the body commutative, or annotate //klocs:unordered with a justification")
}

// orderChecker decides whether a map-range body is provably
// order-insensitive.
type orderChecker struct {
	info *types.Info
	// locals are objects assignable freely inside the body: the range
	// variables and anything the body itself declares.
	locals map[types.Object]bool
	// key is the range key object, if any: plain assignment to an index
	// expression is order-safe only when the index depends on it
	// (distinct iterations write distinct elements).
	key types.Object
}

func (c *orderChecker) noteRangeVars(rs *ast.RangeStmt) {
	if rs.Tok != token.DEFINE {
		return
	}
	if id, ok := rs.Key.(*ast.Ident); ok {
		if obj := c.info.Defs[id]; obj != nil {
			c.locals[obj] = true
			c.key = obj
		}
	}
	if id, ok := rs.Value.(*ast.Ident); ok {
		if obj := c.info.Defs[id]; obj != nil {
			c.locals[obj] = true
		}
	}
}

// commutativeBody reports whether every statement is an
// order-insensitive update: commutative compound assignments,
// assignments to body-locals or key-indexed elements, deletes, and
// pure control flow around them.
func (c *orderChecker) commutativeBody(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if !c.okStmt(s) {
			return false
		}
	}
	return true
}

func (c *orderChecker) okStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.okAssign(s)
	case *ast.IncDecStmt:
		return c.pure(s.X)
	case *ast.ExprStmt:
		// delete(m, k) is the one call statement that commutes (distinct
		// keys, distinct entries).
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return c.pureAll(call.Args)
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !c.okStmt(s.Init) {
			return false
		}
		if !c.pure(s.Cond) || !c.commutativeBody(s.Body) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return c.commutativeBody(e)
		case *ast.IfStmt:
			return c.okStmt(e)
		}
		return false
	case *ast.BlockStmt:
		return c.commutativeBody(s)
	case *ast.BranchStmt:
		return s.Label == nil && (s.Tok == token.BREAK || s.Tok == token.CONTINUE)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || !c.pureAll(vs.Values) {
				return false
			}
			for _, name := range vs.Names {
				if obj := c.info.Defs[name]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return true
	}
	return false
}

func (c *orderChecker) okAssign(s *ast.AssignStmt) bool {
	if !c.pureAll(s.Rhs) {
		return false
	}
	switch s.Tok {
	case token.DEFINE:
		for _, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return false
			}
			if obj := c.info.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative/associative folds: every iteration contributes to
		// the same accumulator regardless of order. The targets' index
		// expressions must still be pure.
		return c.pureAll(s.Lhs)
	case token.ASSIGN:
		for _, lhs := range s.Lhs {
			if !c.okPlainTarget(lhs) {
				return false
			}
		}
		return true
	}
	return false
}

// okPlainTarget allows `x = v` only where x is a body-local (dies with
// the iteration) or an element keyed by the range key (each iteration
// writes a distinct element).
func (c *orderChecker) okPlainTarget(lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := c.info.Uses[lhs]
		return obj != nil && c.locals[obj]
	case *ast.IndexExpr:
		return c.pure(lhs.X) && c.pure(lhs.Index) && c.mentionsKey(lhs.Index)
	}
	return false
}

func (c *orderChecker) mentionsKey(e ast.Expr) bool {
	if c.key == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.info.Uses[id] == c.key {
			found = true
		}
		return !found
	})
	return found
}

// collectBody reports whether the body only gathers elements into
// slices via append — possibly behind pure `if` filters — plus
// order-insensitive statements, the shape the sorted-next-statement
// escape hatch accepts.
func (c *orderChecker) collectBody(body *ast.BlockStmt) bool {
	ok, saw := c.collectStmts(body.List)
	return ok && saw
}

func (c *orderChecker) collectStmts(list []ast.Stmt) (ok, sawAppend bool) {
	for _, s := range list {
		stOK, stSaw := c.collectStmt(s)
		if !stOK {
			return false, false
		}
		sawAppend = sawAppend || stSaw
	}
	return true, sawAppend
}

func (c *orderChecker) collectStmt(s ast.Stmt) (ok, sawAppend bool) {
	if c.okStmt(s) {
		return true, false
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false, false
		}
		call, isCall := s.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return false, false
		}
		id, isIdent := call.Fun.(*ast.Ident)
		if !isIdent {
			return false, false
		}
		if b, isBuiltin := c.info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "append" {
			return false, false
		}
		return c.pureAll(call.Args), true
	case *ast.IfStmt:
		// A pure filter around collection: `if cond { out = append(..) }`.
		if s.Init != nil && !c.okStmt(s.Init) {
			return false, false
		}
		if !c.pure(s.Cond) {
			return false, false
		}
		okThen, sawThen := c.collectStmts(s.Body.List)
		if !okThen {
			return false, false
		}
		switch e := s.Else.(type) {
		case nil:
			return true, sawThen
		case *ast.BlockStmt:
			okElse, sawElse := c.collectStmts(e.List)
			return okElse, sawThen || sawElse
		case *ast.IfStmt:
			okElse, sawElse := c.collectStmt(e)
			return okElse, sawThen || sawElse
		}
		return false, false
	case *ast.BlockStmt:
		return c.collectStmts(s.List)
	}
	return false, false
}

// pure reports whether evaluating e involves no function calls other
// than builtins and type conversions — i.e. nothing whose side effects
// or results could depend on iteration order beyond the operands
// themselves.
func (c *orderChecker) pure(e ast.Expr) bool {
	if e == nil {
		return true
	}
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return ok
		}
		// Type conversions are value operations.
		if tv, has := c.info.Types[call.Fun]; has && tv.IsType() {
			return ok
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent {
			if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
				return ok
			}
		}
		ok = false
		return false
	})
	return ok
}

func (c *orderChecker) pureAll(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !c.pure(e) {
			return false
		}
	}
	return true
}

// isSortCall reports whether stmt is a call into package sort or
// slices — the tail of the collect-then-sort idiom.
func isSortCall(info *types.Info, stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices"
}
