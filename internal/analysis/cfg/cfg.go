// Package cfg builds per-function control-flow graphs from go/ast, the
// flow substrate under atomiovet's flow-sensitive analyzers. A Graph is
// a list of basic blocks; each block carries the statements and control
// expressions executed in order and the edges to its possible
// successors. Branches (if/for/range/switch/select), labeled jumps
// (break/continue/goto), fallthrough, and early exits (return, panic)
// all become explicit edges, so a dataflow client (internal/analysis/
// dataflow) can reason about "on every path" and "on some path"
// properties instead of pattern-matching statement syntax.
//
// Two deliberate modelling choices matter to the analyzers built on top:
//
//   - Deferred calls never appear inside the flow. A *ast.DeferStmt node
//     is recorded in Graph.Defers (and left in its block so positions
//     stay visible), but the deferred call itself runs at function exit
//     — a `defer mu.Unlock()` therefore does not release the mutex
//     anywhere in the body, which is exactly the semantics the
//     coordcontract analyzer needs.
//   - A call to the builtin panic terminates its block with no
//     successors, like return: facts never flow past a path that cannot
//     fall through.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every basic block in creation order; Blocks[0] is the
	// entry block. Blocks unreachable from the entry may exist (dead
	// code after return); dataflow clients simply never visit them.
	Blocks []*Block
	// Entry is the block control enters at.
	Entry *Block
	// Exit is the single synthetic exit block: every return and every
	// fall-off-the-end path jumps to it. It carries no nodes.
	Exit *Block
	// Defers lists every defer statement in the body, in source order.
	// Deferred calls execute at function exit (LIFO), not where they
	// appear in the flow.
	Defers []*ast.DeferStmt
}

// Block is one basic block: a maximal run of nodes with one entry point,
// executed in order, ending in zero or more successor edges.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes holds the statements and control expressions of the block in
	// execution order. Control expressions appear as bare ast.Expr: an
	// if or for condition is the last node of the block that branches on
	// it, a range/switch/select subject likewise precedes its dispatch.
	Nodes []ast.Node
	// Succs are the possible successors. For a block whose last node is
	// a branch condition (Cond != nil), Succs[0] is the true edge and
	// Succs[1] the false edge.
	Succs []*Block
	// Cond, when non-nil, is the boolean condition the block ends on;
	// Succs[0] is taken when it holds, Succs[1] when it does not.
	Cond ast.Expr
	// kind labels the block's role for debug dumps ("entry", "if.then",
	// "for.body", ...).
	kind string
}

// New builds the control-flow graph of one function body. A nil body
// (declaration without body) yields a graph with only entry and exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmt(body)
	}
	b.jump(b.g.Exit) // fall off the end
	return b.g
}

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block // current block; nil after a terminator (unreachable)

	// breaks / continues map enclosing loop/switch/select statements to
	// their break and continue targets, innermost last.
	breaks    []jumpTarget
	continues []jumpTarget

	// labels maps label names to their blocks for goto and labeled
	// break/continue; gotos to labels not yet seen are patched at the
	// end of the enclosing function build.
	labels map[string]*Block
	// labelOf remembers the statement a label names, so labeled
	// break/continue can find the matching loop target.
	labelStmt map[ast.Stmt]string
}

// jumpTarget associates a breakable/continuable statement with its exit
// (break) or back-edge (continue) block and optional label.
type jumpTarget struct {
	stmt  ast.Stmt
	label string
	block *Block
}

// newBlock appends a fresh block to the graph.
func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add appends a node to the current block; a nil current block means the
// node is unreachable, and it is dropped (dead code carries no facts).
func (b *builder) add(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// jump wires an edge from the current block to dst and leaves the
// current block terminated.
func (b *builder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// startBlock makes dst current, to be filled next.
func (b *builder) startBlock(dst *Block) { b.cur = dst }

// labelTarget returns (creating on demand) the block a label names.
func (b *builder) labelTarget(name string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock("label." + name)
		b.labels[name] = blk
	}
	return blk
}

// stmt lowers one statement into the graph.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			b.stmt(inner)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		alt := done
		if s.Else != nil {
			alt = b.newBlock("if.else")
		}
		if condBlock != nil {
			condBlock.Cond = s.Cond
			condBlock.Succs = append(condBlock.Succs, then, alt)
		}
		b.cur = nil
		b.startBlock(then)
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			b.startBlock(alt)
			b.stmt(s.Else)
			b.jump(done)
		}
		b.startBlock(done)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			head.Cond = s.Cond
			head.Succs = append(head.Succs, body, done)
			b.cur = nil
		} else {
			b.jump(body)
		}
		b.pushTargets(s, done, post)
		b.startBlock(body)
		b.stmt(s.Body)
		b.popTargets()
		b.jump(post)
		if s.Post != nil {
			b.startBlock(post)
			b.stmt(s.Post)
			b.jump(head)
		}
		b.startBlock(done)

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.add(s.X)
		b.jump(head)
		b.startBlock(head)
		// The range dispatch itself: assigns the iteration variables.
		b.add(s)
		head.Succs = append(head.Succs, body, done)
		b.cur = nil
		b.pushTargets(s, done, head)
		b.startBlock(body)
		b.stmt(s.Body)
		b.popTargets()
		b.jump(head)
		b.startBlock(done)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s, s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s, s.Body, nil)

	case *ast.SelectStmt:
		done := b.newBlock("select.done")
		dispatch := b.cur
		b.pushTargets(s, done, nil)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock("select.case")
			if dispatch != nil {
				dispatch.Succs = append(dispatch.Succs, blk)
			}
			b.startBlock(blk)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, inner := range cc.Body {
				b.stmt(inner)
			}
			b.jump(done)
		}
		// A select with no default blocks until a case is ready: there
		// is no fall-through edge from the dispatch.
		b.popTargets()
		b.cur = nil
		b.startBlock(done)

	case *ast.LabeledStmt:
		target := b.labelTarget(s.Label.Name)
		if b.labelStmt == nil {
			b.labelStmt = make(map[ast.Stmt]string)
		}
		b.labelStmt[s.Stmt] = s.Label.Name
		b.jump(target)
		b.startBlock(target)
		b.stmt(s.Stmt)

	case *ast.BranchStmt:
		b.add(s)
		b.branch(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			// panic never falls through; like return, but the exit is
			// abnormal, so no edge at all.
			b.cur = nil
		}

	default:
		// Assignments, declarations, sends, go statements, inc/dec,
		// empty statements: straight-line nodes.
		b.add(s)
	}
}

// switchBody lowers the case clauses of a value or type switch: every
// clause is a successor of the dispatch block, fallthrough chains clause
// bodies, and a missing default adds a direct dispatch→done edge.
func (b *builder) switchBody(sw ast.Stmt, body *ast.BlockStmt, _ []*Block) {
	dispatch := b.cur
	done := b.newBlock("switch.done")
	b.pushTargets(sw, done, nil)
	var clauseBlocks []*Block
	hasDefault := false
	for _, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		blk := b.newBlock("switch.case")
		if cc.List == nil {
			hasDefault = true
		}
		if dispatch != nil {
			dispatch.Succs = append(dispatch.Succs, blk)
		}
		clauseBlocks = append(clauseBlocks, blk)
	}
	if !hasDefault && dispatch != nil {
		dispatch.Succs = append(dispatch.Succs, done)
	}
	b.cur = nil
	for i, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		b.startBlock(clauseBlocks[i])
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for _, inner := range cc.Body {
			if br, ok := inner.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				if i+1 < len(clauseBlocks) {
					b.add(br)
					b.jump(clauseBlocks[i+1])
				}
				continue
			}
			b.stmt(inner)
		}
		if !fallsThrough {
			b.jump(done)
		}
	}
	b.popTargets()
	b.startBlock(done)
}

// branch wires break/continue/goto edges.
func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		for i := len(b.breaks) - 1; i >= 0; i-- {
			t := b.breaks[i]
			if s.Label == nil || t.label == s.Label.Name {
				b.jump(t.block)
				return
			}
		}
		b.cur = nil
	case "continue":
		for i := len(b.continues) - 1; i >= 0; i-- {
			t := b.continues[i]
			if t.block == nil {
				continue // switch/select: not continuable
			}
			if s.Label == nil || t.label == s.Label.Name {
				b.jump(t.block)
				return
			}
		}
		b.cur = nil
	case "goto":
		if s.Label != nil {
			b.jump(b.labelTarget(s.Label.Name))
			return
		}
		b.cur = nil
	default: // fallthrough outside switchBody: already handled there
		b.cur = nil
	}
}

// pushTargets registers the break and continue targets of one enclosing
// breakable statement; continueTo may be nil (switch, select).
func (b *builder) pushTargets(s ast.Stmt, breakTo, continueTo *Block) {
	label := b.labelStmt[s]
	b.breaks = append(b.breaks, jumpTarget{stmt: s, label: label, block: breakTo})
	b.continues = append(b.continues, jumpTarget{stmt: s, label: label, block: continueTo})
}

// popTargets unwinds one pushTargets.
func (b *builder) popTargets() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// isPanic reports whether e is a call to the builtin panic. It is a
// syntactic check: a local function named panic would defeat it, and the
// repo's own style never shadows builtins (the shadow analyzer guards
// adjacent mistakes).
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Reachable returns the set of blocks reachable from the entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// Dump renders the graph in a compact textual form for tests and
// debugging: one line per block, "i(kind): n nodes -> succ indexes".
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d(%s): %d", b.Index, b.kind, len(b.Nodes))
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " %d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
