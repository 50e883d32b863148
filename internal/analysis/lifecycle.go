package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lifecycle is the static complement of the runtime sanitizer's
// KASAN/kmemleak findings: a path-sensitive alloc/free state machine
// run over every function's CFG, composed across call boundaries with
// bottom-up summaries. Where alloc.Sanitizer catches a double free
// only when a seed happens to drive the workload through it, this
// analyzer proves the property over all paths at lint time:
//
//   - double free: a path on which an object already released reaches
//     a second Free*/Release*/Teardown* call (directly or through a
//     helper whose summary frees its argument);
//   - free on some paths only: a return reachable with the object
//     freed on one incoming path and still live on another;
//   - leak on early return: a return path on which a locally
//     allocated object is neither freed, deferred-freed, returned,
//     nor stored anywhere.
//
// Objects enter tracking when a local is assigned from an allocator —
// a module function whose name starts with Alloc returning a pointer
// or interface, or any function summarized as returning one such
// object unconsumed. Tracking is deliberately droppable: a value that
// escapes (returned, stored into a field, captured by a closure,
// passed to a function whose summary does not account for it) leaves
// the state machine, so every report is about a provably local
// lifetime. The `if err != nil` and comma-ok idioms refine state
// along branch edges, which is what keeps early-return cleanup code
// from reporting as a leak.
//
// False positives carry a //klocs:ignore-lifecycle marker with the
// justification.
var Lifecycle = &ModuleAnalyzer{
	Name: "lifecycle",
	Doc:  "prove alloc/free pairing across call boundaries: no double free, no path-dependent free, no leak on early return",
	Run:  runLifecycle,
}

const lifecycleMarker = "ignore-lifecycle"

// freeEffect says what a callee does to one of its operands.
type freeEffect uint8

const (
	freeNone freeEffect = iota
	// freeMaybe: the callee frees the operand on some paths.
	freeMaybe
	// freeAlways: the callee frees the operand on every path.
	freeAlways
)

// paramEffect is a callee's summarized effect on one operand slot.
type paramEffect struct {
	frees freeEffect
	// escapes: the callee may retain the operand (store, return,
	// capture), so the caller can no longer reason about it.
	escapes bool
}

// lifeSummary is the interprocedural summary of one function.
type lifeSummary struct {
	// allocator: the function returns a freshly allocated tracked
	// object at result index allocResult.
	allocator   bool
	allocResult int
	// recv and params describe the function's effect on its receiver
	// and parameters.
	recv   paramEffect
	params []paramEffect
}

func lifeSummaryChanged(a, b lifeSummary) bool {
	if a.allocator != b.allocator || a.allocResult != b.allocResult || a.recv != b.recv || len(a.params) != len(b.params) {
		return true
	}
	for i := range a.params {
		if a.params[i] != b.params[i] {
			return true
		}
	}
	return false
}

// Lifecycle state bits per tracked variable.
const (
	lAlloc uint8 = 1 << iota // holds a live allocation on some path
	lFreed                   // freed on some path
	lNil                     // nil on some path (allocation failed)
)

// varOrigin says why a variable is tracked.
type varOrigin struct {
	// param index: receiver is -1, parameters are 0..n-1; locals from
	// allocator calls use paramIdx = -2.
	paramIdx int
	allocPos token.Pos
}

const originLocal = -2

// lifeState is the abstract state at one program point.
type lifeState struct {
	vars map[*types.Var]uint8
	// errLink maps an error (or ok-bool) variable to the object
	// variable defined in the same tuple assignment, for branch
	// refinement on `if err != nil` / `if !ok`.
	errLink map[*types.Var]*types.Var
}

func newLifeState() *lifeState {
	return &lifeState{vars: map[*types.Var]uint8{}, errLink: map[*types.Var]*types.Var{}}
}

func (s *lifeState) clone() *lifeState {
	out := newLifeState()
	for v, m := range s.vars {
		out.vars[v] = m
	}
	for v, o := range s.errLink {
		out.errLink[v] = o
	}
	return out
}

// join merges other into s (bitwise union per variable), returning
// whether s changed.
func (s *lifeState) join(other *lifeState) bool {
	changed := false
	//klocs:unordered bitwise union per distinct key is commutative
	for v, m := range other.vars {
		if s.vars[v]|m != s.vars[v] {
			s.vars[v] |= m
			changed = true
		}
	}
	//klocs:unordered each entry lands at its own key; links never conflict
	for v, o := range other.errLink {
		if s.errLink[v] != o {
			s.errLink[v] = o
			changed = true
		}
	}
	return changed
}

// isFreeName reports whether a function name follows the module's
// teardown conventions.
func isFreeName(name string) bool {
	return strings.HasPrefix(name, "Free") || strings.HasPrefix(name, "Release") ||
		strings.HasPrefix(name, "Teardown") || strings.HasPrefix(name, "Destroy")
}

// isAllocName reports whether a function name marks an allocator.
func isAllocName(name string) bool { return strings.HasPrefix(name, "Alloc") }

// trackableType reports whether a type is worth tracking: pointers
// and interfaces (the shapes the module's allocators hand out).
func trackableType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return true
	}
	return false
}

// seedSummary overlays the naming-convention effects onto a computed
// summary: a Free*/Release*/Teardown*/Destroy* function releases its
// object operand even when its body bottoms out in map surgery the
// dataflow cannot interpret, and an Alloc* function returning a
// pointer is an allocator even when it materializes the object from a
// free list.
func seedSummary(n *FuncNode, sum lifeSummary) lifeSummary {
	if n.Obj == nil {
		return sum
	}
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok {
		return sum
	}
	name := n.Obj.Name()
	if isFreeName(name) {
		// A method with a trackable parameter frees that parameter (the
		// allocator-frees-object shape); otherwise it frees its receiver.
		slot := -1
		for i := 0; i < sig.Params().Len(); i++ {
			if trackableType(sig.Params().At(i).Type()) {
				slot = i
				break
			}
		}
		if slot >= 0 {
			for len(sum.params) <= slot {
				sum.params = append(sum.params, paramEffect{})
			}
			if sum.params[slot].frees < freeAlways {
				sum.params[slot].frees = freeAlways
			}
		} else if sig.Recv() != nil && sum.recv.frees < freeAlways {
			sum.recv.frees = freeAlways
		}
	}
	if isAllocName(name) && sig.Results().Len() > 0 && trackableType(sig.Results().At(0).Type()) {
		sum.allocator = true
		sum.allocResult = 0
	}
	return sum
}

func runLifecycle(pass *ModulePass) error {
	g := pass.Module.Graph
	compute := func(n *FuncNode, get func(*FuncNode) (lifeSummary, bool)) lifeSummary {
		la := newLifeAnalysis(pass.Module, n, get)
		if la.cfg == nil {
			return seedSummary(n, lifeSummary{})
		}
		return seedSummary(n, la.solve())
	}
	summaries := FixpointSummaries(g, compute, lifeSummaryChanged)
	// Reporting pass with the converged summaries.
	getFinal := func(n *FuncNode) (lifeSummary, bool) {
		s, ok := summaries[n]
		return s, ok
	}
	var reports []lifeReport
	for _, n := range g.Nodes {
		la := newLifeAnalysis(pass.Module, n, getFinal)
		if la.cfg == nil {
			continue
		}
		la.report = true
		la.solve()
		reports = append(reports, la.reports...)
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].pos != reports[j].pos {
			return reports[i].pos < reports[j].pos
		}
		return reports[i].msg < reports[j].msg
	})
	seen := map[string]bool{}
	for _, r := range reports {
		key := fmt.Sprintf("%d:%s", r.pos, r.msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		if pass.Marked(lifecycleMarker, r.pos) || (r.allocPos.IsValid() && pass.Marked(lifecycleMarker, r.allocPos)) {
			continue
		}
		pass.Reportf(r.pos, "%s", r.msg)
	}
	return nil
}

type lifeReport struct {
	pos      token.Pos
	allocPos token.Pos
	msg      string
}

// lifeAnalysis solves the state machine over one function.
type lifeAnalysis struct {
	mod    *Module
	n      *FuncNode
	pkg    *Package
	info   *types.Info
	cfg    *CFG
	get    func(*FuncNode) (lifeSummary, bool)
	report bool

	origins map[*types.Var]varOrigin
	in      map[*Block]*lifeState
	reports []lifeReport
}

func newLifeAnalysis(mod *Module, n *FuncNode, get func(*FuncNode) (lifeSummary, bool)) *lifeAnalysis {
	body := n.Body()
	if body == nil {
		return &lifeAnalysis{}
	}
	cfg := NewCFG(body)
	if !cfg.OK {
		return &lifeAnalysis{}
	}
	return &lifeAnalysis{
		mod:     mod,
		n:       n,
		pkg:     n.Pkg,
		info:    n.Pkg.Info,
		cfg:     cfg,
		get:     get,
		origins: map[*types.Var]varOrigin{},
		in:      map[*Block]*lifeState{},
	}
}

// solve runs the forward fixpoint and derives the function summary.
func (la *lifeAnalysis) solve() lifeSummary {
	entry := newLifeState()
	// Parameters (and the receiver) of trackable type enter as live
	// allocations owned by the caller, so the exit state yields their
	// freed/escaped effects.
	recvVar, paramVars := la.paramObjects()
	if recvVar != nil {
		la.origins[recvVar] = varOrigin{paramIdx: -1}
		entry.vars[recvVar] = lAlloc
	}
	for i, v := range paramVars {
		if v == nil {
			continue
		}
		la.origins[v] = varOrigin{paramIdx: i}
		entry.vars[v] = lAlloc
	}
	for _, b := range la.cfg.Blocks {
		la.in[b] = newLifeState()
	}
	la.in[la.cfg.Blocks[0]] = entry
	work := append([]*Block(nil), la.cfg.Blocks...)
	for iter := 0; len(work) > 0 && iter < 4*len(la.cfg.Blocks)+64; iter++ {
		b := work[0]
		work = work[1:]
		out := la.in[b].clone()
		for _, s := range b.Stmts {
			la.transferStmt(out, s)
		}
		for si, succ := range b.Succs {
			next := out
			if b.Cond != nil && si < 2 {
				next = out.clone()
				la.refine(next, b.Cond, si == 0)
			}
			if la.in[succ].join(next) {
				queued := false
				for _, w := range work {
					if w == succ {
						queued = true
						break
					}
				}
				if !queued {
					work = append(work, succ)
				}
			}
		}
	}
	return la.summarize(recvVar, paramVars)
}

// paramObjects returns the receiver and parameter variables of
// trackable type.
func (la *lifeAnalysis) paramObjects() (recv *types.Var, params []*types.Var) {
	if la.n.Decl == nil {
		return nil, nil // literals: captured state is not summarized
	}
	lookup := func(fl *ast.FieldList) []*types.Var {
		var out []*types.Var
		if fl == nil {
			return nil
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				v, ok := la.info.Defs[name].(*types.Var)
				if ok && trackableType(v.Type()) {
					out = append(out, v)
				} else {
					out = append(out, nil)
				}
			}
			if len(f.Names) == 0 {
				out = append(out, nil) // unnamed parameter
			}
		}
		return out
	}
	if la.n.Decl.Recv != nil {
		if rs := lookup(la.n.Decl.Recv); len(rs) > 0 {
			recv = rs[0]
		}
	}
	return recv, lookup(la.n.Decl.Type.Params)
}

// summarize reads the exit state into a function summary.
func (la *lifeAnalysis) summarize(recvVar *types.Var, paramVars []*types.Var) lifeSummary {
	sum := lifeSummary{params: make([]paramEffect, len(paramVars))}
	exit := la.in[la.cfg.Exit]
	effectOf := func(v *types.Var) paramEffect {
		if v == nil {
			return paramEffect{}
		}
		mask, tracked := exit.vars[v]
		if !tracked {
			// Dropped from tracking: the param escaped.
			return paramEffect{escapes: true}
		}
		switch {
		case mask&lFreed != 0 && mask&lAlloc == 0:
			return paramEffect{frees: freeAlways}
		case mask&lFreed != 0:
			return paramEffect{frees: freeMaybe}
		}
		return paramEffect{}
	}
	sum.recv = effectOf(recvVar)
	for i, v := range paramVars {
		sum.params[i] = effectOf(v)
	}
	// Allocator detection: some return hands back a live allocation.
	for _, b := range la.cfg.Blocks {
		if b.Return == nil {
			continue
		}
		state := la.stateBefore(b, b.Return)
		for i, e := range b.Return.Results {
			if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
				if callee := la.staticCallee(call); callee != nil {
					if s, ok := la.get(callee); ok && s.allocator {
						sum.allocator, sum.allocResult = true, i
					}
				}
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				v, _ := la.info.Uses[id].(*types.Var)
				if v == nil {
					continue
				}
				if o, tracked := la.origins[v]; tracked && o.paramIdx == originLocal && state.vars[v]&lAlloc != 0 {
					sum.allocator, sum.allocResult = true, i
				}
			}
		}
	}
	return sum
}

// stateBefore replays the block up to (but excluding) stmt.
func (la *lifeAnalysis) stateBefore(b *Block, stmt ast.Stmt) *lifeState {
	state := la.in[b].clone()
	for _, s := range b.Stmts {
		if s == stmt {
			break
		}
		la.transferStmt(state, s)
	}
	return state
}

// staticCallee resolves a call to its single static module target.
func (la *lifeAnalysis) staticCallee(call *ast.CallExpr) *FuncNode {
	for _, site := range la.n.Calls {
		if site.Call == call && site.Kind == CallStatic && len(site.Callees) == 1 {
			return site.Callees[0]
		}
	}
	return nil
}

// siteFor finds the resolved call site for a call expression.
func (la *lifeAnalysis) siteFor(call *ast.CallExpr) *CallSite {
	for _, site := range la.n.Calls {
		if site.Call == call {
			return site
		}
	}
	return nil
}

// transferStmt applies one statement to the state.
func (la *lifeAnalysis) transferStmt(st *lifeState, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		la.evalExpr(st, s.X, false)
	case *ast.AssignStmt:
		la.transferAssign(st, s)
	case *ast.DeclStmt:
		la.transferDecl(st, s)
	case *ast.DeferStmt:
		la.evalExpr(st, s.Call, false)
	case *ast.GoStmt:
		// Concurrent execution: everything handed to the goroutine is
		// beyond this function's reasoning.
		la.escapeAllIn(st, s.Call)
	case *ast.ReturnStmt:
		la.transferReturn(st, s)
	case *ast.SendStmt:
		la.evalExpr(st, s.Chan, false)
		la.escapeAllIn(st, s.Value)
	case *ast.RangeStmt:
		la.evalExpr(st, s.X, true)
		for _, d := range stmtDefs(la.info, s) {
			la.untrack(st, d.Var)
		}
	case *ast.IncDecStmt:
		// numeric: nothing tracked
	case *ast.LabeledStmt:
		la.transferStmt(st, s.Stmt)
	}
}

// transferAssign handles definitions: fresh allocations enter
// tracking, aliases and stores escape, everything else untracks.
func (la *lifeAnalysis) transferAssign(st *lifeState, s *ast.AssignStmt) {
	// Evaluate RHS effects first (calls consume/free/escape operands).
	for _, rhs := range s.Rhs {
		la.evalExpr(st, rhs, false)
		la.escapeAlias(st, rhs)
	}
	// Stores through non-identifier targets escape the stored values.
	for i, lhs := range s.Lhs {
		if _, ok := lhs.(*ast.Ident); ok {
			continue
		}
		la.evalExpr(st, lhs, true)
		if i < len(s.Rhs) {
			la.escapeAllIn(st, s.Rhs[i])
		} else if len(s.Rhs) == 1 {
			la.escapeAllIn(st, s.Rhs[0])
		}
	}
	la.applyDefs(st, stmtDefs(la.info, s))
}

func (la *lifeAnalysis) transferDecl(st *lifeState, s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			for _, v := range vs.Values {
				la.evalExpr(st, v, false)
				la.escapeAlias(st, v)
			}
		}
	}
	la.applyDefs(st, stmtDefs(la.info, s))
}

// applyDefs installs new variable states for the statement's defs.
func (la *lifeAnalysis) applyDefs(st *lifeState, defs []*Def) {
	for _, d := range defs {
		la.untrack(st, d.Var)
	}
	// Group tuple defs by their defining call to detect allocators.
	for _, d := range defs {
		if d.Call != nil {
			callee := la.staticCallee(d.Call)
			if callee == nil {
				continue
			}
			sum, ok := la.get(callee)
			if !ok || !sum.allocator || d.Result != sum.allocResult {
				continue
			}
			la.origins[d.Var] = varOrigin{paramIdx: originLocal, allocPos: d.Pos}
			st.vars[d.Var] = lAlloc
			// Link the companion error/ok result for branch refinement.
			for _, other := range defs {
				if other.Call == d.Call && other != d && isErrOrBool(other.Var.Type()) {
					st.errLink[other.Var] = d.Var
				}
			}
			continue
		}
		if d.Rhs == nil {
			continue
		}
		if call, ok := ast.Unparen(d.Rhs).(*ast.CallExpr); ok {
			callee := la.staticCallee(call)
			if callee == nil {
				continue
			}
			if sum, ok := la.get(callee); ok && sum.allocator && sum.allocResult == 0 {
				la.origins[d.Var] = varOrigin{paramIdx: originLocal, allocPos: d.Pos}
				st.vars[d.Var] = lAlloc
			}
		}
	}
}

func isErrOrBool(t types.Type) bool {
	if isErrorType(t) {
		return true
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// escapeAlias drops a tracked variable copied wholesale by an
// assignment (`x := o`): the alias takes over the object's lifetime.
func (la *lifeAnalysis) escapeAlias(st *lifeState, rhs ast.Expr) {
	id, ok := ast.Unparen(rhs).(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := la.info.Uses[id].(*types.Var); ok {
		if _, tracked := st.vars[v]; tracked {
			la.untrack(st, v)
		}
	}
}

// untrack removes v from the state (fresh definition or lost value).
func (la *lifeAnalysis) untrack(st *lifeState, v *types.Var) {
	delete(st.vars, v)
	delete(st.errLink, v)
	for e, o := range st.errLink {
		if o == v {
			delete(st.errLink, e)
		}
	}
}

// transferReturn checks leaks at a return site, then escapes the
// returned values.
func (la *lifeAnalysis) transferReturn(st *lifeState, s *ast.ReturnStmt) {
	returned := map[*types.Var]bool{}
	for _, e := range s.Results {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := la.info.Uses[id].(*types.Var); ok {
				returned[v] = true
			}
		}
	}
	la.checkLeaks(st, s.Pos(), returned)
	for _, e := range s.Results {
		la.evalExpr(st, e, false)
		la.escapeAllIn(st, e)
	}
}

// checkLeaks reports locally allocated objects still live at a
// function exit.
func (la *lifeAnalysis) checkLeaks(st *lifeState, pos token.Pos, returned map[*types.Var]bool) {
	if !la.report {
		return
	}
	type leak struct {
		v    *types.Var
		mask uint8
	}
	var leaks []leak
	for v, mask := range st.vars {
		o, tracked := la.origins[v]
		if !tracked || o.paramIdx != originLocal || returned[v] {
			continue
		}
		if mask&lAlloc == 0 {
			continue // freed or nil everywhere
		}
		leaks = append(leaks, leak{v: v, mask: mask})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].v.Pos() < leaks[j].v.Pos() })
	for _, lk := range leaks {
		o := la.origins[lk.v]
		allocAt := la.pkg.Fset.Position(o.allocPos)
		if lk.mask&lFreed != 0 {
			la.reports = append(la.reports, lifeReport{pos: pos, allocPos: o.allocPos,
				msg: fmt.Sprintf("%s (allocated at line %d) is freed on only some paths reaching this return: free it on every path or annotate //klocs:ignore-lifecycle", lk.v.Name(), allocAt.Line)})
		} else {
			la.reports = append(la.reports, lifeReport{pos: pos, allocPos: o.allocPos,
				msg: fmt.Sprintf("%s (allocated at line %d) leaks on this return path: neither freed nor passed on (annotate //klocs:ignore-lifecycle if teardown is external)", lk.v.Name(), allocAt.Line)})
		}
	}
}

// evalExpr applies the effects of every call in e and escapes tracked
// values used in escaping positions. readOnly marks contexts (range
// sources, index bases) that cannot leak the value.
func (la *lifeAnalysis) evalExpr(st *lifeState, e ast.Expr, readOnly bool) {
	if e == nil {
		return
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Captured tracked values live beyond this function's
			// reasoning.
			la.escapeAllIn(st, n.Body)
			return false
		case *ast.CallExpr:
			la.applyCall(st, n)
			return false // applyCall walks operands itself
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				la.escapeAllIn(st, n.X)
				return false
			}
		case *ast.CompositeLit:
			la.escapeAllIn(st, n)
			return false
		}
		return true
	}
	ast.Inspect(e, visit)
	_ = readOnly
}

// applyCall transfers one call's operand effects.
func (la *lifeAnalysis) applyCall(st *lifeState, call *ast.CallExpr) {
	site := la.siteFor(call)
	// Walk nested calls in the arguments first (inner calls happen
	// before the outer one).
	for _, arg := range call.Args {
		la.evalExpr(st, arg, false)
	}
	if recv := callReceiver(call); recv != nil {
		la.evalExpr(st, recv, true)
	}
	if site == nil {
		// Type conversion or builtin: operands pass through untouched.
		return
	}
	// Resolve the per-operand effects.
	recvEffect, paramEffects, variadic := la.callEffects(site)
	if recv := callReceiver(call); recv != nil {
		la.applyOperand(st, recv, recvEffect, call)
	}
	for i, arg := range call.Args {
		eff := paramEffect{escapes: true}
		if i < len(paramEffects) {
			eff = paramEffects[i]
		} else if variadic && len(paramEffects) > 0 {
			eff = paramEffects[len(paramEffects)-1]
		}
		la.applyOperand(st, arg, eff, call)
	}
}

// callEffects derives the operand effects of a call site from the
// callee summary, the naming convention (for interface and external
// callees), or worst-case escape.
func (la *lifeAnalysis) callEffects(site *CallSite) (recv paramEffect, params []paramEffect, variadic bool) {
	worstCase := func(n int) []paramEffect {
		out := make([]paramEffect, n)
		for i := range out {
			out[i] = paramEffect{escapes: true}
		}
		return out
	}
	switch site.Kind {
	case CallStatic:
		callee := site.Callees[0]
		if sum, ok := la.get(callee); ok {
			if callee.Obj != nil {
				if sig, ok := callee.Obj.Type().(*types.Signature); ok {
					variadic = sig.Variadic()
				}
			}
			return sum.recv, sum.params, variadic
		}
		return paramEffect{escapes: true}, nil, false
	case CallInterface:
		// Join the implementations' summaries; fall back to the naming
		// convention when none resolve.
		name := calleeName(site.Call)
		if len(site.Callees) > 0 {
			joined := paramEffect{}
			var joinedParams []paramEffect
			for i, callee := range site.Callees {
				sum, ok := la.get(callee)
				if !ok {
					return paramEffect{escapes: true}, worstCase(len(site.Call.Args)), false
				}
				if i == 0 {
					joined, joinedParams = sum.recv, append([]paramEffect(nil), sum.params...)
					continue
				}
				joined = joinEffect(joined, sum.recv)
				for j := range joinedParams {
					if j < len(sum.params) {
						joinedParams[j] = joinEffect(joinedParams[j], sum.params[j])
					} else {
						joinedParams[j].escapes = true
					}
				}
			}
			return joined, joinedParams, false
		}
		if isFreeName(name) {
			return paramEffect{frees: freeAlways}, nil, false
		}
		return paramEffect{escapes: true}, worstCase(len(site.Call.Args)), false
	default: // CallDynamic, CallExternal
		name := calleeName(site.Call)
		if isFreeName(name) {
			// External/unknown teardown: treat the object operand as
			// freed, matching the naming discipline.
			eff := paramEffect{frees: freeAlways}
			if len(site.Call.Args) > 0 {
				return paramEffect{}, []paramEffect{eff}, false
			}
			return eff, nil, false
		}
		return paramEffect{escapes: true}, worstCase(len(site.Call.Args)), false
	}
}

// joinEffect merges two callee effects conservatively.
func joinEffect(a, b paramEffect) paramEffect {
	out := paramEffect{escapes: a.escapes || b.escapes}
	switch {
	case a.frees == b.frees:
		out.frees = a.frees
	case a.frees == freeNone || b.frees == freeNone:
		out.frees = freeMaybe
	default:
		out.frees = freeMaybe
	}
	return out
}

// applyOperand applies one operand's effect to a tracked variable.
func (la *lifeAnalysis) applyOperand(st *lifeState, arg ast.Expr, eff paramEffect, call *ast.CallExpr) {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return
	}
	v, _ := la.info.Uses[id].(*types.Var)
	if v == nil {
		return
	}
	mask, tracked := st.vars[v]
	if !tracked {
		return
	}
	if eff.frees != freeNone {
		if mask&lFreed != 0 && la.report {
			suffix := ""
			if mask&lAlloc != 0 {
				suffix = " on some paths reaching this call"
			}
			la.reports = append(la.reports, lifeReport{pos: call.Pos(), allocPos: la.origins[v].allocPos,
				msg: fmt.Sprintf("double free of %s: already freed%s (annotate //klocs:ignore-lifecycle if the free is idempotent)", v.Name(), suffix)})
		}
		if eff.frees == freeAlways {
			st.vars[v] = lFreed | (mask & lNil)
		} else {
			st.vars[v] = mask | lFreed
		}
		return
	}
	if eff.escapes {
		la.untrack(st, v)
	}
}

// escapeAllIn drops every tracked variable referenced under n.
func (la *lifeAnalysis) escapeAllIn(st *lifeState, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := la.info.Uses[id].(*types.Var); ok {
				if _, tracked := st.vars[v]; tracked {
					la.untrack(st, v)
				}
			}
		}
		return true
	})
}

// refine sharpens state along a branch edge for the nil-check and
// comma-ok idioms.
func (la *lifeAnalysis) refine(st *lifeState, cond ast.Expr, taken bool) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			la.refine(st, c.X, !taken)
		}
	case *ast.Ident:
		// `if ok { ... }`: ok true means the object is valid.
		v, _ := la.info.Uses[c].(*types.Var)
		if v == nil {
			return
		}
		if obj, linked := st.errLink[v]; linked {
			la.refineObj(st, obj, taken)
		}
	case *ast.BinaryExpr:
		if c.Op != token.EQL && c.Op != token.NEQ {
			return
		}
		var other ast.Expr
		if isNilExpr(la.info, c.X) {
			other = c.Y
		} else if isNilExpr(la.info, c.Y) {
			other = c.X
		} else {
			return
		}
		id, ok := ast.Unparen(other).(*ast.Ident)
		if !ok {
			return
		}
		v, _ := la.info.Uses[id].(*types.Var)
		if v == nil {
			return
		}
		// `x != nil` taken, or `x == nil` not taken → x is valid.
		valid := (c.Op == token.NEQ) == taken
		if obj, linked := st.errLink[v]; linked {
			// err != nil → the allocation failed: the object is nil.
			la.refineObj(st, obj, !valid)
			return
		}
		if _, tracked := st.vars[v]; tracked {
			la.refineObj(st, v, valid)
		}
	}
}

// refineObj narrows a tracked object's state to the valid or nil arm.
func (la *lifeAnalysis) refineObj(st *lifeState, v *types.Var, valid bool) {
	mask, tracked := st.vars[v]
	if !tracked {
		return
	}
	if valid {
		if mask&^lNil != 0 {
			st.vars[v] = mask &^ lNil
		}
	} else {
		st.vars[v] = lNil
	}
}

// callReceiver returns the receiver expression of a method call.
func callReceiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// calleeName extracts the syntactic callee name for naming-convention
// fallbacks.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
