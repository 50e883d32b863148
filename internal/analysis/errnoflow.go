package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrnoFlow is the provenance half of the errno discipline. Where
// errnocheck (per-package) forbids *dropping* an error, this analyzer
// proves that every error which can escape one of the module's
// errno-speaking boundaries *derives from* the internal/fault
// vocabulary: it is a fault.Errno, a fault-plane constructor result,
// or a %w-wrap / errors.Join over such errors. A naked fmt.Errorf or
// errors.New at (or flowing to) a boundary launders an injected fault
// into an anonymous string — fault.IsErrno stops matching, the
// harness stops counting the operation as degraded-but-accounted, and
// the pressure plane's errno-keyed accounting goes blind. This is the
// sparse __must_check flow analog: the type system says "error", the
// analyzer proves which errors.
//
// Scope: the packages that speak errno (alloc, blockdev, fs, kernel,
// memsim, netsim, pressure). Reports land on the return statement
// that constructs or forwards the underivable error, which is where
// the fix goes. Deliberate exceptions carry //klocs:ignore-errno with
// a justification.
var ErrnoFlow = &ModuleAnalyzer{
	Name: "errnoflow",
	Doc:  "prove errors escaping errno-speaking boundaries derive from the internal/fault vocabulary",
	Run:  runErrnoFlow,
}

// errnoScopePaths lists the module packages whose API boundaries must
// speak errno. Test fixtures opt in through the "fixture/" prefix.
var errnoScopePaths = map[string]bool{
	"kloc/internal/alloc":    true,
	"kloc/internal/blockdev": true,
	"kloc/internal/cluster":  true,
	"kloc/internal/fs":       true,
	"kloc/internal/kernel":   true,
	"kloc/internal/memsim":   true,
	"kloc/internal/netsim":   true,
	"kloc/internal/pressure": true,
}

const faultPkgPath = "kloc/internal/fault"

func errnoInScope(path string) bool {
	return errnoScopePaths[path] || strings.HasPrefix(path, "fixture/") || strings.HasPrefix(path, "fixture.")
}

// errnoSummary says whether every error an escape path of the
// function produces derives from the fault vocabulary.
type errnoSummary struct {
	returnsError bool
	clean        bool
}

func errnoSummaryChanged(a, b errnoSummary) bool { return a != b }

// dirt explains why one return expression is not errno-derived.
type dirt struct {
	// local is a human-readable reason rooted in this function (naked
	// fmt.Errorf, external call, out-of-scope callee). Empty when the
	// only dirt flows from in-scope module callees.
	local string
	// callees are in-scope module functions whose dirty summaries the
	// expression forwards; their own return sites carry the report.
	callees []*FuncNode
}

func (d *dirt) isClean() bool { return d.local == "" && len(d.callees) == 0 }

func (d *dirt) merge(other dirt) {
	if d.local == "" {
		d.local = other.local
	}
	d.callees = append(d.callees, other.callees...)
}

func runErrnoFlow(pass *ModulePass) error {
	g := pass.Module.Graph
	compute := func(n *FuncNode, get func(*FuncNode) (errnoSummary, bool)) errnoSummary {
		ea := newErrnoAnalysis(n, get)
		if ea == nil {
			return errnoSummary{}
		}
		return ea.summarize()
	}
	summaries := FixpointSummaries(g, compute, errnoSummaryChanged)
	getFinal := func(n *FuncNode) (errnoSummary, bool) {
		s, ok := summaries[n]
		return s, ok
	}

	// A function's dirty returns matter only when its error can reach
	// an errno-speaking boundary: exported functions of the in-scope
	// packages seed the set, and every error-returning callee of a
	// boundary-reaching function joins it.
	reaching := boundaryReaching(g)

	for _, n := range g.Nodes {
		if n.Pkg == nil || !errnoInScope(n.Pkg.Path) || !reaching[n] {
			continue
		}
		ea := newErrnoAnalysis(n, getFinal)
		if ea == nil {
			continue
		}
		for _, site := range ea.returnSites() {
			d := ea.classifyExpr(site.expr, 0)
			if d.isClean() {
				continue
			}
			if d.local == "" {
				// Dirt flows only from in-scope, boundary-reaching module
				// callees: their own return sites carry the report.
				forwarded := true
				for _, callee := range d.callees {
					if callee.Pkg == nil || !errnoInScope(callee.Pkg.Path) || !reaching[callee] {
						forwarded = false
						d.local = fmt.Sprintf("error forwarded from %s, which does not carry an errno", callee.String())
						break
					}
				}
				if forwarded {
					continue
				}
			}
			if pass.Marked(errnoMarker, site.stmt.Pos()) {
				continue
			}
			pass.Reportf(site.stmt.Pos(), "error escaping errno boundary does not derive from the internal/fault vocabulary: %s (wrap the cause with a fault errno via %%w, or annotate //klocs:ignore-errno)", d.local)
		}
	}
	return nil
}

// boundaryReaching computes the functions whose error results can
// flow to an in-scope exported boundary, over-approximating by
// following static and interface call edges from the boundaries.
func boundaryReaching(g *CallGraph) map[*FuncNode]bool {
	reaching := make(map[*FuncNode]bool)
	var work []*FuncNode
	add := func(n *FuncNode) {
		if n != nil && !reaching[n] {
			reaching[n] = true
			work = append(work, n)
		}
	}
	for _, n := range g.Nodes {
		if n.Obj == nil || n.Pkg == nil || !errnoInScope(n.Pkg.Path) {
			continue
		}
		if n.Obj.Exported() && funcReturnsError(n.Obj) {
			add(n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, site := range n.Calls {
			for _, m := range site.Callees {
				if m.Obj != nil && funcReturnsError(m.Obj) {
					add(m)
				} else if m.Lit != nil && funcLitReturnsError(m) {
					add(m)
				}
			}
		}
	}
	return reaching
}

func funcReturnsError(fn *types.Func) bool { return errorResultIndex(fn) >= 0 }

func funcLitReturnsError(n *FuncNode) bool {
	if n.Lit == nil || n.Lit.Type.Results == nil {
		return false
	}
	info := n.Pkg.Info
	for _, f := range n.Lit.Type.Results.List {
		if tv, ok := info.Types[f.Type]; ok && isErrorType(tv.Type) {
			return true
		}
	}
	return false
}

// errnoAnalysis classifies error provenance within one function.
type errnoAnalysis struct {
	n    *FuncNode
	info *types.Info
	cfg  *CFG
	rd   *ReachingDefs
	get  func(*FuncNode) (errnoSummary, bool)

	// allDefs is the flow-insensitive fallback for identifiers whose
	// precise program point is unavailable (definitions referenced from
	// other definitions' right-hand sides).
	allDefs map[*types.Var][]*Def
	// visiting breaks provenance cycles (err = fmt.Errorf("…: %w", err)
	// inside a loop): an in-progress definition is optimistically clean,
	// the standard treatment for derives-from fixpoints.
	visiting map[*Def]bool
	memo     map[*Def]dirt
}

func newErrnoAnalysis(n *FuncNode, get func(*FuncNode) (errnoSummary, bool)) *errnoAnalysis {
	body := n.Body()
	if body == nil {
		return nil
	}
	cfg := NewCFG(body)
	if !cfg.OK {
		return nil
	}
	var ftype *ast.FuncType
	var recv *ast.FieldList
	if n.Decl != nil {
		ftype, recv = n.Decl.Type, n.Decl.Recv
	} else if n.Lit != nil {
		ftype = n.Lit.Type
	}
	ea := &errnoAnalysis{
		n:        n,
		info:     n.Pkg.Info,
		cfg:      cfg,
		rd:       NewReachingDefs(cfg, n.Pkg.Info, ftype, recv),
		get:      get,
		allDefs:  make(map[*types.Var][]*Def),
		visiting: make(map[*Def]bool),
		memo:     make(map[*Def]dirt),
	}
	for _, b := range cfg.Blocks {
		for _, s := range b.Stmts {
			// Shares the reaching-defs cache so *Def identities line up
			// with At/AtExit results (memoization depends on it).
			for _, d := range ea.rd.stmtDefsCached(s) {
				ea.allDefs[d.Var] = append(ea.allDefs[d.Var], d)
			}
		}
	}
	return ea
}

// errnoReturnSite is one return statement's error-typed expression.
type errnoReturnSite struct {
	stmt *ast.ReturnStmt
	expr ast.Expr
}

// returnSites collects the error-typed expressions of every return.
func (ea *errnoAnalysis) returnSites() []errnoReturnSite {
	var sites []errnoReturnSite
	for _, b := range ea.cfg.Blocks {
		if b.Return == nil {
			continue
		}
		for _, e := range b.Return.Results {
			tv, ok := ea.info.Types[e]
			if !ok || !isErrorType(tv.Type) {
				continue
			}
			sites = append(sites, errnoReturnSite{stmt: b.Return, expr: e})
		}
	}
	return sites
}

// summarize derives the function's errno summary.
func (ea *errnoAnalysis) summarize() errnoSummary {
	sites := ea.returnSites()
	sum := errnoSummary{returnsError: len(sites) > 0, clean: true}
	for _, site := range sites {
		d := ea.classifyExpr(site.expr, 0)
		if !d.isClean() {
			sum.clean = false
			return sum
		}
	}
	return sum
}

const errnoMaxDepth = 24

// classifyExpr decides whether e provably derives from the fault
// vocabulary, and if not, why.
func (ea *errnoAnalysis) classifyExpr(e ast.Expr, depth int) dirt {
	if e == nil || depth > errnoMaxDepth {
		return dirt{}
	}
	e = ast.Unparen(e)
	// A value whose static type is fault.Errno is the vocabulary.
	if tv, ok := ea.info.Types[e]; ok && isFaultErrno(tv.Type) {
		return dirt{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if _, isNil := ea.info.Uses[e].(*types.Nil); isNil {
			return dirt{}
		}
		v, _ := ea.info.Uses[e].(*types.Var)
		if v == nil {
			return dirt{}
		}
		return ea.classifyVarUse(e, v, depth)
	case *ast.CallExpr:
		return ea.classifyCall(e, depth)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.TypeAssertExpr, *ast.StarExpr:
		// Field loads and friends: provenance unknown; stay quiet rather
		// than flag what the analysis cannot see.
		return dirt{}
	}
	return dirt{}
}

// classifyVarUse resolves an identifier through reaching definitions:
// flow-sensitive at its use point, flow-insensitive for definitions
// referenced from other definitions.
func (ea *errnoAnalysis) classifyVarUse(id *ast.Ident, v *types.Var, depth int) dirt {
	defs := ea.defsAtUse(id, v)
	if len(defs) == 0 {
		// Parameter, capture, or a point the dataflow cannot place:
		// unknown provenance stays quiet.
		return dirt{}
	}
	var d dirt
	for _, def := range defs {
		d.merge(ea.classifyDef(def, depth+1))
	}
	return d
}

// defsAtUse finds the definitions of v reaching the statement that
// contains id, falling back to every definition in the function.
func (ea *errnoAnalysis) defsAtUse(id *ast.Ident, v *types.Var) []*Def {
	for _, b := range ea.cfg.Blocks {
		for i, s := range b.Stmts {
			if s.Pos() <= id.Pos() && id.End() <= s.End() {
				return ea.rd.At(b, i, v)
			}
		}
		if b.Cond != nil && b.Cond.Pos() <= id.Pos() && id.End() <= b.Cond.End() {
			return ea.rd.AtExit(b, v)
		}
	}
	return ea.allDefs[v]
}

// classifyDef decides whether one definition is errno-derived.
func (ea *errnoAnalysis) classifyDef(def *Def, depth int) dirt {
	if d, ok := ea.memo[def]; ok {
		return d
	}
	if ea.visiting[def] {
		return dirt{} // optimistic: cycles resolve clean
	}
	ea.visiting[def] = true
	var d dirt
	switch {
	case def.Zero:
		// var err error / parameter: nil or caller-supplied — quiet.
	case def.Call != nil:
		d = ea.classifyCall(def.Call, depth+1)
	case def.Rhs != nil:
		d = ea.classifyExpr(def.Rhs, depth+1)
	}
	delete(ea.visiting, def)
	ea.memo[def] = d
	return d
}

// classifyCall decides whether a call's error result is errno-derived.
func (ea *errnoAnalysis) classifyCall(call *ast.CallExpr, depth int) dirt {
	if tv, ok := ea.info.Types[call]; ok && isFaultErrno(tv.Type) {
		return dirt{}
	}
	fn := calleeFunc(ea.info, call)
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case faultPkgPath:
			// Every fault-plane constructor speaks errno by construction.
			return dirt{}
		case "fmt":
			if fn.Name() == "Errorf" {
				return ea.classifyErrorf(call, depth)
			}
		case "errors":
			switch fn.Name() {
			case "New":
				return dirt{local: "errors.New creates an anonymous error"}
			case "Join":
				return ea.classifyErrorArgs(call.Args, depth)
			}
		}
	}
	// Module callees: defer to their summaries.
	site := ea.siteFor(call)
	if site != nil {
		switch site.Kind {
		case CallStatic, CallInterface:
			if len(site.Callees) == 0 {
				return dirt{local: fmt.Sprintf("error from unresolvable interface call %s", calleeName(call))}
			}
			var d dirt
			for _, callee := range site.Callees {
				sum, ok := ea.get(callee)
				if !ok {
					continue // in-cycle: optimistic
				}
				if !sum.clean {
					d.callees = append(d.callees, callee)
				}
			}
			return d
		case CallDynamic:
			// Hook or stored func value: provenance unknown — quiet, the
			// hook's own body is analyzed where it is defined.
			return dirt{}
		}
	}
	if fn != nil {
		return dirt{local: fmt.Sprintf("error from external call %s not wrapped with a fault errno", calleeLabel(fn))}
	}
	return dirt{}
}

// classifyErrorf handles fmt.Errorf: with a %w verb it derives from
// the operands its %w verbs consume; without one it launders them into
// a string. An operand another verb (%v, %s) only formats is not
// forwarded.
func (ea *errnoAnalysis) classifyErrorf(call *ast.CallExpr, depth int) dirt {
	if len(call.Args) == 0 {
		return dirt{local: "fmt.Errorf without arguments"}
	}
	tv, ok := ea.info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		// Non-constant format: cannot prove a %w — treat as laundering.
		return dirt{local: "fmt.Errorf with non-constant format cannot prove %w wrapping"}
	}
	format := constant.StringVal(tv.Value)
	if !strings.Contains(format, "%w") {
		return dirt{local: "fmt.Errorf without %w severs the errno chain"}
	}
	operands := call.Args[1:]
	wrapped, ok := wrapOperands(format)
	if !ok || call.Ellipsis.IsValid() {
		// Explicit argument indexes or a spread slice: the operand of
		// each verb is not followed, so every error operand counts.
		return ea.classifyErrorArgs(operands, depth)
	}
	var d dirt
	for _, i := range wrapped {
		if i < len(operands) {
			d.merge(ea.classifyErrorArgs(operands[i:i+1], depth))
		}
	}
	return d
}

// wrapOperands returns the positions, among the operands after a
// format string, that the format's %w verbs consume. ok is false when
// the format uses explicit argument indexes ("%[2]w").
func wrapOperands(format string) (pos []int, ok bool) {
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		// Flags, width and precision; a '*' consumes an operand.
		for i++; i < len(format) && strings.IndexByte("+-# 0123456789.*", format[i]) >= 0; i++ {
			if format[i] == '*' {
				arg++
			}
		}
		if i == len(format) {
			break
		}
		switch format[i] {
		case '[':
			return nil, false
		case '%':
			continue // a literal percent consumes nothing
		case 'w':
			pos = append(pos, arg)
		}
		arg++
	}
	return pos, true
}

// classifyErrorArgs classifies every error-typed expression among args
// (the operands a %w or errors.Join forwards).
func (ea *errnoAnalysis) classifyErrorArgs(args []ast.Expr, depth int) dirt {
	var d dirt
	for _, arg := range args {
		tv, ok := ea.info.Types[arg]
		if !ok || !isErrorType(tv.Type) {
			continue
		}
		d.merge(ea.classifyExpr(arg, depth+1))
	}
	return d
}

// siteFor finds the resolved call site for a call expression.
func (ea *errnoAnalysis) siteFor(call *ast.CallExpr) *CallSite {
	for _, site := range ea.n.Calls {
		if site.Call == call {
			return site
		}
	}
	return nil
}

// calleeFunc resolves the called *types.Func, module or not.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isFaultErrno reports whether t is kloc/internal/fault.Errno.
func isFaultErrno(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Errno" && obj.Pkg() != nil && obj.Pkg().Path() == faultPkgPath
}
