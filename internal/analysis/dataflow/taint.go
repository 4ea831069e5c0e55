package dataflow

import (
	"go/ast"
	"go/types"

	"atomio/internal/analysis/cfg"
)

// TaintResult answers "is this expression tainted at its program
// point?" for one function, given a client-defined source predicate.
// Taint is flow-sensitive over the CFG: assignments propagate it,
// reassignment from a clean value kills it (strong update), joins are
// unions (tainted on any path is tainted).
type TaintResult struct {
	g        *cfg.Graph
	info     *types.Info
	isSource func(*ast.CallExpr) bool
	res      *Result[Set[*types.Var]]
}

// Taint runs the taint walk over g. isSource marks the calls whose
// results introduce taint (for vtflow: the host-clock reads).
// Propagation is conservative: any expression containing a tainted
// subexpression is tainted, and a non-source call with a tainted
// argument taints its results (max(wall, x) stays tainted).
func Taint(g *cfg.Graph, info *types.Info, isSource func(*ast.CallExpr) bool) *TaintResult {
	t := &TaintResult{g: g, info: info, isSource: isSource}
	spec := Spec[Set[*types.Var]]{
		Boundary: Set[*types.Var]{},
		Join:     Union[*types.Var],
		Equal:    EqualSets[*types.Var],
		Copy:     CopySet[*types.Var],
		Transfer: func(b *cfg.Block, in Set[*types.Var]) Set[*types.Var] {
			for _, n := range b.Nodes {
				t.applyNode(n, in, nil)
			}
			return in
		},
	}
	t.res = Solve(g, spec)
	return t
}

// Visit replays the solved facts and calls report for every expression
// that is tainted at its own program point, visiting reachable blocks
// in index order. Sub-expressions are visited too: in sink(f(wall)),
// both the call and wall itself are reported; clients filter by type or
// context.
func (t *TaintResult) Visit(report func(e ast.Expr)) {
	for _, b := range t.g.Blocks {
		in, ok := t.res.In[b]
		if !ok {
			continue
		}
		fact := CopySet(in)
		for _, n := range b.Nodes {
			t.applyNode(n, fact, report)
		}
	}
}

// applyNode evaluates one CFG node against the fact: expressions are
// checked (reporting tainted ones when report is non-nil) with the
// pre-assignment fact, then assignments update it. Deferred calls are
// skipped — they run at exit, and vtflow's sinks are value flows, not
// calls. Function literals own their flow and are skipped.
func (t *TaintResult) applyNode(n ast.Node, fact Set[*types.Var], report func(ast.Expr)) {
	switch s := n.(type) {
	case *ast.DeferStmt:
		return
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			t.visitExpr(rhs, fact, report)
		}
		// Tuple assignment from one call: the call's taint covers every
		// LHS. Positional assignment pairs each RHS with its LHS.
		if len(s.Lhs) != len(s.Rhs) {
			tainted := len(s.Rhs) == 1 && t.exprTainted(s.Rhs[0], fact)
			for _, lhs := range s.Lhs {
				t.update(lhs, tainted, fact)
			}
			return
		}
		for i, lhs := range s.Lhs {
			t.update(lhs, t.exprTainted(s.Rhs[i], fact), fact)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				t.visitExpr(v, fact, report)
			}
			switch {
			case len(vs.Values) == len(vs.Names):
				for i, name := range vs.Names {
					t.update(name, t.exprTainted(vs.Values[i], fact), fact)
				}
			case len(vs.Values) == 1:
				tainted := t.exprTainted(vs.Values[0], fact)
				for _, name := range vs.Names {
					t.update(name, tainted, fact)
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a tainted collection taints the iteration vars.
		tainted := t.exprTainted(s.X, fact)
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e != nil {
				t.update(e, tainted, fact)
			}
		}
	case *ast.IncDecStmt:
		t.visitExpr(s.X, fact, report)
	case ast.Expr:
		t.visitExpr(s, fact, report)
	case *ast.ExprStmt:
		t.visitExpr(s.X, fact, report)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			t.visitExpr(e, fact, report)
		}
	case *ast.SendStmt:
		t.visitExpr(s.Chan, fact, report)
		t.visitExpr(s.Value, fact, report)
	case *ast.GoStmt:
		t.visitExpr(s.Call, fact, report)
	}
}

// update sets or clears the taint of an assignment target. Identifier
// targets get strong updates; stores through memory (x.f, x[i], *p)
// redefine no tracked local and are left to the visit pass, which
// reports the tainted stored value itself.
func (t *TaintResult) update(lhs ast.Expr, tainted bool, fact Set[*types.Var]) {
	if v := lhsVar(t.info, lhs); v != nil {
		if tainted {
			fact[v] = true
		} else {
			delete(fact, v)
		}
	}
}

// visitExpr reports every tainted subexpression of e (when report is
// non-nil). Function literals are not descended into.
func (t *TaintResult) visitExpr(e ast.Expr, fact Set[*types.Var], report func(ast.Expr)) {
	if report == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sub, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t.exprTainted(sub, fact) {
			report(sub)
		}
		return true
	})
}

// exprTainted evaluates the taint of one expression under fact.
func (t *TaintResult) exprTainted(e ast.Expr, fact Set[*types.Var]) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := t.info.Uses[e].(*types.Var); ok {
			return fact[v]
		}
		return false
	case *ast.CallExpr:
		if t.isSource(e) {
			return true
		}
		// Conversions and ordinary calls both propagate operand taint
		// to their result.
		for _, arg := range e.Args {
			if t.exprTainted(arg, fact) {
				return true
			}
		}
		// A method call on a tainted receiver stays tainted
		// (wall.Nanoseconds()).
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return t.exprTainted(sel.X, fact)
		}
		return false
	case *ast.BinaryExpr:
		return t.exprTainted(e.X, fact) || t.exprTainted(e.Y, fact)
	case *ast.UnaryExpr:
		return t.exprTainted(e.X, fact)
	case *ast.ParenExpr:
		return t.exprTainted(e.X, fact)
	case *ast.StarExpr:
		return t.exprTainted(e.X, fact)
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted; a package-qualified
		// name is not.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := t.info.Uses[id].(*types.PkgName); isPkg {
				return false
			}
		}
		return t.exprTainted(e.X, fact)
	case *ast.IndexExpr:
		return t.exprTainted(e.X, fact) || t.exprTainted(e.Index, fact)
	case *ast.SliceExpr:
		return t.exprTainted(e.X, fact)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if t.exprTainted(kv.Value, fact) {
					return true
				}
				continue
			}
			if t.exprTainted(el, fact) {
				return true
			}
		}
		return false
	case *ast.KeyValueExpr:
		return t.exprTainted(e.Value, fact)
	case *ast.TypeAssertExpr:
		return t.exprTainted(e.X, fact)
	}
	return false
}

// lhsVar resolves an assignment target to the local variable it names,
// or nil for non-identifier targets (x.f, x[i], *p — stores through
// memory, not redefinitions of a local).
func lhsVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}
