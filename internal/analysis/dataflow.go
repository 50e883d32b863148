package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the dataflow layer of the interprocedural engine:
// classic reaching definitions over the CFGs of cfg.go, plus the
// bottom-up summary fixpoint that lets per-function facts (allocates /
// frees / errno-clean) compose across call boundaries. Both are
// deliberately small textbook implementations — the module's
// functions have tens of blocks, not thousands, so clarity beats
// bitsets.

// A Def is one static definition of a variable.
type Def struct {
	Var *types.Var
	// Rhs is the defining expression; nil when the definition carries
	// no usable expression (range variables, zero-value declarations).
	Rhs ast.Expr
	// Call and Result identify tuple definitions `v, w := f()`: the
	// variable receives result Result of Call. Nil otherwise.
	Call   *ast.CallExpr
	Result int
	// Zero marks a zero-value declaration (`var err error`).
	Zero bool
	Pos  token.Pos
}

// defSet maps variables to the definitions that may reach a point.
type defSet map[*types.Var][]*Def

func (s defSet) clone() defSet {
	out := make(defSet, len(s))
	for v, defs := range s {
		out[v] = append([]*Def(nil), defs...)
	}
	return out
}

// merge unions other into s, returning whether s grew. Definition
// lists keep first-seen order, so iteration stays deterministic.
func (s defSet) merge(other defSet) bool {
	grew := false
	//klocs:unordered per-key union: each variable's def list is built from its own defs only
	for v, defs := range other {
		have := s[v]
		for _, d := range defs {
			found := false
			for _, h := range have {
				if h == d {
					found = true
					break
				}
			}
			if !found {
				have = append(have, d)
				grew = true
			}
		}
		s[v] = have
	}
	return grew
}

// ReachingDefs holds the per-block reaching-definition solution for
// one function.
type ReachingDefs struct {
	info *types.Info
	// in holds the definitions reaching each block's entry.
	in map[*Block]defSet
	// defs caches stmtDefs per statement: the fixpoint dedups defs by
	// pointer identity, so each statement must yield stable *Def values
	// across iterations.
	defs map[ast.Stmt][]*Def
}

// stmtDefsCached returns the statement's definitions with stable
// identity.
func (r *ReachingDefs) stmtDefsCached(s ast.Stmt) []*Def {
	if d, ok := r.defs[s]; ok {
		return d
	}
	d := stmtDefs(r.info, s)
	r.defs[s] = d
	return d
}

// NewReachingDefs solves reaching definitions over cfg. Parameters
// and named results of sig (if non-nil) enter the entry block as
// Zero/parameter definitions so queries distinguish "defined before
// any assignment" from "unknown variable".
func NewReachingDefs(cfg *CFG, info *types.Info, sig *ast.FuncType, recv *ast.FieldList) *ReachingDefs {
	r := &ReachingDefs{info: info, in: make(map[*Block]defSet), defs: make(map[ast.Stmt][]*Def)}
	entry := defSet{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					entry[v] = []*Def{{Var: v, Zero: true, Pos: name.Pos()}}
				}
			}
		}
	}
	addFields(recv)
	if sig != nil {
		addFields(sig.Params)
		addFields(sig.Results)
	}
	for _, b := range cfg.Blocks {
		r.in[b] = defSet{}
	}
	r.in[cfg.Blocks[0]] = entry
	// Worklist iteration to fixpoint.
	work := append([]*Block(nil), cfg.Blocks...)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := r.flow(b, r.in[b].clone())
		for _, succ := range b.Succs {
			if r.in[succ].merge(out) {
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
	return r
}

// flow applies the block's definitions to state (gen/kill in order).
func (r *ReachingDefs) flow(b *Block, state defSet) defSet {
	for _, s := range b.Stmts {
		for _, d := range r.stmtDefsCached(s) {
			state[d.Var] = []*Def{d}
		}
	}
	return state
}

// At returns the definitions of v that reach statement index upto
// (exclusive) of block b.
func (r *ReachingDefs) At(b *Block, upto int, v *types.Var) []*Def {
	state := r.in[b].clone()
	for i := 0; i < upto && i < len(b.Stmts); i++ {
		for _, d := range r.stmtDefsCached(b.Stmts[i]) {
			state[d.Var] = []*Def{d}
		}
	}
	return state[v]
}

// AtExit returns the definitions of v reaching the end of block b.
func (r *ReachingDefs) AtExit(b *Block, v *types.Var) []*Def {
	return r.At(b, len(b.Stmts), v)
}

// stmtDefs extracts the variable definitions a statement performs.
// Definitions inside nested function literals belong to the literal,
// not this function, and are skipped.
func stmtDefs(info *types.Info, s ast.Stmt) []*Def {
	var defs []*Def
	addIdent := func(id *ast.Ident, rhs ast.Expr, call *ast.CallExpr, result int, zero bool) {
		if id.Name == "_" {
			return
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil {
			return
		}
		defs = append(defs, &Def{Var: v, Rhs: rhs, Call: call, Result: result, Zero: zero, Pos: id.Pos()})
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			// Tuple form: v, w := f() (or a map/type-assertion comma-ok).
			call, _ := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					addIdent(id, nil, call, i, false)
				}
			}
			return defs
		}
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			var rhs ast.Expr
			if i < len(s.Rhs) {
				rhs = s.Rhs[i]
			}
			addIdent(id, rhs, nil, 0, false)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Names) > 1 && len(vs.Values) == 1 {
				call, _ := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				for i, name := range vs.Names {
					addIdent(name, nil, call, i, false)
				}
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					addIdent(name, vs.Values[i], nil, 0, false)
				} else {
					addIdent(name, nil, nil, 0, true)
				}
			}
		}
	case *ast.RangeStmt:
		if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
			if id, ok := s.Key.(*ast.Ident); ok {
				addIdent(id, nil, nil, 0, false)
			}
			if id, ok := s.Value.(*ast.Ident); ok {
				addIdent(id, nil, nil, 0, false)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			addIdent(id, nil, nil, 0, false)
		}
	}
	return defs
}

// FixpointSummaries computes one summary per function, bottom-up over
// the call graph's strongly connected components. compute derives a
// function's summary from its body, reading callee summaries through
// get (which reports false for functions not yet summarized — only
// possible inside a cycle, where the fixpoint iteration supplies
// successively better approximations). changed reports whether a
// recomputed summary differs from the previous one; each SCC iterates
// until stable, with an iteration cap as a defensive bound.
func FixpointSummaries[S any](g *CallGraph, compute func(n *FuncNode, get func(*FuncNode) (S, bool)) S, changed func(old, new S) bool) map[*FuncNode]S {
	summaries := make(map[*FuncNode]S, len(g.Nodes))
	have := make(map[*FuncNode]bool, len(g.Nodes))
	get := func(n *FuncNode) (S, bool) {
		s, ok := summaries[n]
		if !have[n] {
			return s, false
		}
		return s, ok
	}
	for _, scc := range g.SCCs() {
		// One pass establishes initial summaries; cycles iterate.
		for _, n := range scc {
			summaries[n] = compute(n, get)
			have[n] = true
		}
		if len(scc) == 1 {
			selfLoop := false
			for _, site := range scc[0].Calls {
				for _, m := range site.Callees {
					if m == scc[0] {
						selfLoop = true
					}
				}
			}
			if !selfLoop {
				continue
			}
		}
		for iter := 0; iter < 32; iter++ {
			stable := true
			for _, n := range scc {
				next := compute(n, get)
				if changed(summaries[n], next) {
					stable = false
				}
				summaries[n] = next
			}
			if stable {
				break
			}
		}
	}
	return summaries
}
