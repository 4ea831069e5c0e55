// Package waitcycle enforces path-sensitive ascending order on
// cross-shard mutex acquisitions inside internal/lock. The shardorder
// pass proves the loop idiom (range ascending, release descending);
// waitcycle covers everything shardorder cannot see: straight-line and
// branchy code that acquires two indexed shard mutexes must do so in
// ascending index order on every path, or the two-phase reserve/commit
// protocol's deadlock-freedom argument breaks.
//
// The check runs a dataflow pass (internal/analysis/cfg + dataflow)
// whose fact has two halves with opposite join flavours:
//
//   - held: the indexed mutexes that MAY be held (union join — a lock
//     taken on any path into the point is a hazard),
//   - conds: the index comparisons that MUST hold (intersection join —
//     an ordering proof is only a proof if every path establishes it).
//
// Branch edges teach the conds half: the true edge of `if a < b` adds
// a < b, the false edge its negation b <= a; && and || distribute in
// the obvious one-sided way. The swap idiom `a, b = b, a` renames the
// two variables inside every known fact, so guard-and-swap
// normalization proves its own ordering. Reassigning a variable kills
// every fact that mentions it — which is also what keeps the ascending
// range loop clean: each iteration redefines the index variable, so the
// previously-acquired descriptor no longer names a comparable mutex
// (the loop's direction is shardorder's job).
//
// An acquisition of base[i] while base[j] may be held is legal only if
// the conds half proves j < i (or j <= i: the sorted, deduplicated id
// contract makes equality impossible), or both indices are integer
// literals in ascending order.
package waitcycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"atomio/internal/analysis"
	"atomio/internal/analysis/cfg"
	"atomio/internal/analysis/dataflow"
)

// Analyzer is the waitcycle pass.
var Analyzer = &analysis.Analyzer{
	Name: "waitcycle",
	Doc:  "cross-shard mutex acquisitions must be provably ascending on every path",
	Run:  run,
}

// scope is where the sharded two-phase protocol lives.
var scope = []string{"internal/lock"}

// mutexDesc is one indexed mutex: base has the index position blanked
// ("st.shards[].mu"), idx is the index expression's text.
type mutexDesc struct {
	base string
	idx  string
}

// cond is one comparison known to hold: x op y with op "<" or "<=".
// Strict facts are stored closed under weakening (x<y implies x<=y), so
// intersecting a strict path with a non-strict one keeps the shared
// truth.
type cond struct {
	x, op, y string
}

// fact is the per-point analysis state.
type fact struct {
	held  dataflow.Set[mutexDesc]
	conds dataflow.Set[cond]
}

func copyFact(f fact) fact {
	return fact{held: dataflow.CopySet(f.held), conds: dataflow.CopySet(f.conds)}
}

func run(pass *analysis.Pass) error {
	if !analysis.InAnyScope(analysis.ModuleRel(pass.Pkg.Path()), scope) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	g := cfg.New(fd.Body)
	spec := dataflow.Spec[fact]{
		Boundary: fact{held: dataflow.Set[mutexDesc]{}, conds: dataflow.Set[cond]{}},
		Join: func(acc, src fact) fact {
			acc.held = dataflow.Union(acc.held, src.held)
			acc.conds = dataflow.Intersect(acc.conds, src.conds)
			return acc
		},
		Equal: func(a, b fact) bool {
			return dataflow.EqualSets(a.held, b.held) && dataflow.EqualSets(a.conds, b.conds)
		},
		Copy: copyFact,
		Transfer: func(b *cfg.Block, in fact) fact {
			for _, n := range b.Nodes {
				applyOps(pass, n, in, nil)
			}
			return in
		},
		EdgeTransfer: func(from, to *cfg.Block, f fact) fact {
			if from.Cond == nil || len(from.Succs) != 2 || from.Succs[0] == from.Succs[1] {
				return f
			}
			ef := copyFact(f)
			learn(ef.conds, from.Cond, to == from.Succs[0])
			return ef
		},
	}
	res := dataflow.Solve(g, spec)

	// Replay reachable blocks, checking acquisitions at their exact
	// point (the fact changes mid-block).
	for _, b := range g.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		f := copyFact(in)
		for _, n := range b.Nodes {
			applyOps(pass, n, f, pass)
		}
	}
}

// applyOps folds one CFG node into the fact; when report is non-nil,
// out-of-order acquisitions are diagnosed as they happen. Deferred
// calls run at exit and function literals own their flow: both are
// skipped.
func applyOps(pass *analysis.Pass, n ast.Node, f fact, report *analysis.Pass) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			applyCall(pass, s, f, report)
		case *ast.AssignStmt:
			if isSwap(s) {
				a := types.ExprString(s.Lhs[0])
				b := types.ExprString(s.Lhs[1])
				renameAll(f, a, b)
				return true
			}
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					killMentions(f, id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				killMentions(f, id.Name)
			}
		case *ast.RangeStmt:
			// The head block holds the whole RangeStmt as its dispatch
			// node; the body belongs to other blocks. Kill the iteration
			// variables and do not descend.
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					killMentions(f, id.Name)
				}
			}
			return false
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							killMentions(f, name.Name)
						}
					}
				}
			}
		}
		return true
	})
}

// applyCall handles one indexed-mutex Lock/Unlock, checking order on
// acquisition when report is non-nil.
func applyCall(pass *analysis.Pass, call *ast.CallExpr, f fact, report *analysis.Pass) {
	d, acquire, ok := indexedMutexOp(call)
	if !ok {
		return
	}
	if !acquire {
		delete(f.held, d)
		return
	}
	if report != nil {
		for h := range f.held {
			if h.base != d.base {
				continue
			}
			if proves(f.conds, h.idx, d.idx) {
				continue
			}
			report.Reportf(call.Pos(),
				"cross-shard acquisition out of order: %s may already be held when %s is acquired and no path condition proves %s < %s — acquire shard mutexes in ascending index order",
				display(h), display(d), h.idx, d.idx)
		}
	}
	f.held[d] = true
}

// indexedMutexOp matches base[idx](.field...).Lock/RLock/Unlock/RUnlock
// with no arguments. Non-indexed mutexes have no shard order and are
// coordcontract's concern.
func indexedMutexOp(call *ast.CallExpr) (mutexDesc, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return mutexDesc{}, false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return mutexDesc{}, false, false
	}
	// Find the innermost IndexExpr on the receiver chain.
	var idx *ast.IndexExpr
	for e := sel.X; ; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			idx = x
			e = nil
		default:
			e = nil
		}
		if e == nil {
			break
		}
	}
	if idx == nil {
		return mutexDesc{}, false, false
	}
	idxStr := types.ExprString(idx.Index)
	full := types.ExprString(sel.X)
	base := strings.Replace(full, "["+idxStr+"]", "[]", 1)
	return mutexDesc{base: base, idx: idxStr}, acquire, true
}

// display reconstructs the source form of a descriptor.
func display(d mutexDesc) string {
	return strings.Replace(d.base, "[]", "["+d.idx+"]", 1)
}

// learn folds the branch condition e (taken with the given truth) into
// the cond set, closing strict facts under weakening.
func learn(conds dataflow.Set[cond], e ast.Expr, truth bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		learn(conds, e.X, truth)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			learn(conds, e.X, !truth)
		}
	case *ast.BinaryExpr:
		x, y := types.ExprString(e.X), types.ExprString(e.Y)
		add := func(a, op, b string) {
			conds[cond{a, op, b}] = true
			if op == "<" {
				conds[cond{a, "<=", b}] = true
			}
		}
		switch {
		case e.Op == token.LAND && truth:
			learn(conds, e.X, true)
			learn(conds, e.Y, true)
		case e.Op == token.LOR && !truth:
			learn(conds, e.X, false)
			learn(conds, e.Y, false)
		case e.Op == token.LSS: // x < y
			if truth {
				add(x, "<", y)
			} else {
				add(y, "<=", x)
			}
		case e.Op == token.LEQ: // x <= y
			if truth {
				add(x, "<=", y)
			} else {
				add(y, "<", x)
			}
		case e.Op == token.GTR: // x > y
			if truth {
				add(y, "<", x)
			} else {
				add(x, "<=", y)
			}
		case e.Op == token.GEQ: // x >= y
			if truth {
				add(y, "<=", x)
			} else {
				add(x, "<", y)
			}
		}
	}
}

// proves reports whether the cond set (or literal arithmetic) shows
// j <= i, i.e. that acquiring index i after j respects ascending order.
func proves(conds dataflow.Set[cond], j, i string) bool {
	if conds[cond{j, "<", i}] || conds[cond{j, "<=", i}] {
		return true
	}
	jn, jerr := strconv.Atoi(j)
	in, ierr := strconv.Atoi(i)
	return jerr == nil && ierr == nil && jn < in
}

var identRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// mentions reports whether the expression text uses name as an
// identifier token.
func mentions(s, name string) bool {
	for _, tok := range identRE.FindAllString(s, -1) {
		if tok == name {
			return true
		}
	}
	return false
}

// killMentions drops every fact that depends on the reassigned name.
func killMentions(f fact, name string) {
	for c := range f.conds {
		if mentions(c.x, name) || mentions(c.y, name) {
			delete(f.conds, c)
		}
	}
	for d := range f.held {
		if mentions(d.idx, name) || mentions(d.base, name) {
			delete(f.held, d)
		}
	}
}

// isSwap matches a, b = b, a over plain identifiers.
func isSwap(s *ast.AssignStmt) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 2 || len(s.Rhs) != 2 {
		return false
	}
	l0, ok0 := s.Lhs[0].(*ast.Ident)
	l1, ok1 := s.Lhs[1].(*ast.Ident)
	r0, ok2 := s.Rhs[0].(*ast.Ident)
	r1, ok3 := s.Rhs[1].(*ast.Ident)
	return ok0 && ok1 && ok2 && ok3 && l0.Name == r1.Name && l1.Name == r0.Name && l0.Name != l1.Name
}

// renameAll applies the a<->b swap to every fact.
func renameAll(f fact, a, b string) {
	swapTok := func(s string) string {
		return identRE.ReplaceAllStringFunc(s, func(tok string) string {
			switch tok {
			case a:
				return b
			case b:
				return a
			}
			return tok
		})
	}
	// fact is passed by value sharing its maps: rebuild each map's
	// contents in place so the caller sees the rename.
	conds := make([]cond, 0, len(f.conds))
	for c := range f.conds {
		conds = append(conds, c)
		delete(f.conds, c)
	}
	for _, c := range conds {
		f.conds[cond{swapTok(c.x), c.op, swapTok(c.y)}] = true
	}
	held := make([]mutexDesc, 0, len(f.held))
	for d := range f.held {
		held = append(held, d)
		delete(f.held, d)
	}
	for _, d := range held {
		f.held[mutexDesc{base: swapTok(d.base), idx: swapTok(d.idx)}] = true
	}
}
