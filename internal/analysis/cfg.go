package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds the per-function control-flow graphs the dataflow
// analyses (reaching definitions, the lifecycle state machine) run
// over. Blocks hold statements in execution order; a
// block that branches carries its condition so path-sensitive clients
// can refine state along the true/false edges (the `if err != nil`
// idiom is what makes the lifecycle analyzer precise enough to gate
// CI). Statements that transfer control — return, break, continue,
// fallthrough — terminate their block; `goto` is not modeled, and a
// function using it yields OK=false so clients can skip it instead of
// analyzing a wrong graph.

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists basic blocks in construction order; Blocks[0] is the
	// entry. Unreachable blocks may appear with no predecessors.
	Blocks []*Block
	// Exit is the synthetic sink every return and fall-off-end reaches.
	Exit *Block
	// OK is false when the body uses control flow the builder does not
	// model (goto); the graph is then incomplete and must not be used.
	OK bool
}

// A Block is one basic block.
type Block struct {
	// Stmts are the block's statements in order. Range statements
	// appear as the last statement of their head block.
	Stmts []ast.Stmt
	// Cond, when set, is the branch condition evaluated after Stmts:
	// Succs[0] is the true edge and Succs[1] the false edge.
	Cond  ast.Expr
	Succs []*Block
	// Return is set when the block ends with a return statement.
	Return *ast.ReturnStmt
}

type loopCtx struct {
	label         string
	brk, cont     *Block
	isSwitchOrSel bool // break applies, continue does not
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block
	loops []loopCtx
	// pendingLabel names the statement about to be built, so labeled
	// break/continue can find their loop.
	pendingLabel string
}

// NewCFG builds the control-flow graph of body. Check OK before use.
func NewCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{OK: true}
	b := &cfgBuilder{cfg: c}
	c.Exit = b.newBlock()
	entry := b.newBlock()
	b.cur = entry
	// Entry must be Blocks[0]: swap the synthetic exit to the back.
	c.Blocks[0], c.Blocks[1] = c.Blocks[1], c.Blocks[0]
	b.stmts(body.List)
	// Fall off the end of the body.
	b.edge(b.cur, c.Exit)
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// add appends stmt to the current block.
func (b *cfgBuilder) add(stmt ast.Stmt) {
	b.cur.Stmts = append(b.cur.Stmts, stmt)
}

// terminate ends the current block (after a jump) and starts a fresh,
// currently-unreachable one for any trailing statements.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, label)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		b.cur.Return = s
		b.edge(b.cur, b.cfg.Exit)
		b.terminate()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assign, Decl, Expr, IncDec, Defer, Go, Send: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	condBlock := b.cur
	condBlock.Cond = s.Cond
	thenBlock := b.newBlock()
	join := b.newBlock()
	b.edge(condBlock, thenBlock) // true edge first
	b.cur = thenBlock
	b.stmts(s.Body.List)
	b.edge(b.cur, join)
	if s.Else != nil {
		elseBlock := b.newBlock()
		b.edge(condBlock, elseBlock) // false edge second
		b.cur = elseBlock
		b.stmt(s.Else)
		b.edge(b.cur, join)
	} else {
		b.edge(condBlock, join) // false edge second
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	body := b.newBlock()
	exit := b.newBlock()
	if s.Cond != nil {
		head.Cond = s.Cond
		b.edge(head, body) // true
		b.edge(head, exit) // false
	} else {
		b.edge(head, body)
	}
	post := head
	if s.Post != nil {
		post = b.newBlock()
		b.cur = post
		b.add(s.Post)
		b.edge(post, head)
	}
	b.loops = append(b.loops, loopCtx{label: label, brk: exit, cont: post})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, post)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	// The range statement itself sits in the head: its per-iteration
	// key/value definitions belong to every loop entry.
	b.add(s)
	body := b.newBlock()
	exit := b.newBlock()
	b.edge(head, body)
	b.edge(head, exit)
	b.loops = append(b.loops, loopCtx{label: label, brk: exit, cont: head})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, head)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = exit
}

// switchStmt builds value and type switches: init/tag (or the type-
// switch assign) in the head, one block per case, every case entered
// from the head, fallthrough chaining to the next case body.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label string) {
	if init != nil {
		b.add(init)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	_ = tag
	exit := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, brk: exit, isSwitchOrSel: true})
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, raw := range body.List {
		clause, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, clause)
	}
	for i, clause := range clauses {
		b.cur = caseBlocks[i]
		// A fallthrough as the final statement chains into the next
		// case's block; stmts() adds it as a plain statement, so handle
		// the edge here.
		fallsThrough := false
		list := clause.Body
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				list = list[:n-1]
			}
		}
		b.stmts(list)
		if fallsThrough && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1])
			b.terminate()
		} else {
			b.edge(b.cur, exit)
		}
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = exit
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	exit := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, brk: exit, isSwitchOrSel: true})
	for _, raw := range s.Body.List {
		clause, ok := raw.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if clause.Comm != nil {
			b.add(clause.Comm)
		}
		b.stmts(clause.Body)
		b.edge(b.cur, exit)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = exit
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.GOTO:
		b.cfg.OK = false
		b.terminate()
		return
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt; one that reaches here is
		// in an unmodeled position.
		b.terminate()
		return
	}
	want := ""
	if s.Label != nil {
		want = s.Label.Name
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		ctx := b.loops[i]
		if want != "" && ctx.label != want {
			continue
		}
		if s.Tok == token.CONTINUE && ctx.isSwitchOrSel {
			continue // continue skips switch/select contexts
		}
		if s.Tok == token.BREAK {
			b.edge(b.cur, ctx.brk)
		} else {
			b.edge(b.cur, ctx.cont)
		}
		b.terminate()
		return
	}
	// break/continue without a matching context (malformed or labeled
	// beyond what we track): treat as jump to exit, keep OK.
	b.edge(b.cur, b.cfg.Exit)
	b.terminate()
}
