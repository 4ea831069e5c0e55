// Package detwalk flags `for range` over maps in the output-bearing
// packages — the ones whose computation reaches figure8/sweep output —
// unless the iteration provably cannot leak Go's randomized map order:
// either the loop only collects keys that are subsequently sorted in
// the same function, or every statement in the body is commutative
// accumulation (counters, +=/|=-style folds, keyed writes into another
// map, min/max tracking). Anything else is exactly the bug class the
// (virtual time, actor id) admission order exists to evict: host-dependent
// order leaking into simulated output. Deliberate exceptions carry //atomiovet:allow with
// a written reason.
package detwalk

import (
	"go/ast"
	"go/token"
	"go/types"

	"atomio/internal/analysis"
)

// Analyzer is the detwalk pass.
var Analyzer = &analysis.Analyzer{
	Name: "detwalk",
	Doc:  "map iteration in output-bearing packages must sort keys or be order-insensitive",
	Run:  run,
}

// scope lists the output-bearing subtrees: the facade ("") plus every
// internal package whose state feeds simulated results.
var scope = []string{"", "internal/core", "internal/harness", "internal/lock",
	"internal/mpi", "internal/mpiio", "internal/obs", "internal/pfs", "internal/runner", "internal/sim"}

func run(pass *analysis.Pass) error {
	if !analysis.InAnyScope(analysis.ModuleRel(pass.Pkg.Path()), scope) {
		return nil
	}
	for _, f := range pass.Files {
		// Walk functions so each range statement can see its enclosing
		// body (the collect-then-sort idiom needs the statements after
		// the loop).
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				rs, ok := m.(*ast.RangeStmt)
				if !ok {
					return true
				}
				checkRange(pass, rs, body)
				return true
			})
			// The inner walk already visited any nested function
			// literals' range statements.
			return false
		})
	}
	return nil
}

// checkRange vets one range statement found inside fnBody.
func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	key := rangeVar(pass, rs.Key)
	val := rangeVar(pass, rs.Value)
	if collectsSortedKeys(pass, rs, key, fnBody) {
		return
	}
	if orderInsensitive(pass, rs.Body, key, val) {
		return
	}
	pass.Reportf(rs.Pos(),
		"iteration over map %s has randomized order, which can leak into simulated output: sort the keys first, or keep the body commutative",
		types.ExprString(rs.X))
}

// rangeVar resolves a range key/value identifier to its object.
func rangeVar(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// collectsSortedKeys recognizes the sanctioned extraction idiom: the
// body is exactly `s = append(s, k)` and s is passed to a sort.* or
// slices.Sort* call later in the same function body.
func collectsSortedKeys(pass *analysis.Pass, rs *ast.RangeStmt, key types.Object, fnBody *ast.BlockStmt) bool {
	if key == nil || len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Tok != token.ASSIGN {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if src, ok := call.Args[0].(*ast.Ident); !ok || pass.Info.Uses[src] != objOf(pass, dst) {
		return false
	}
	if arg, ok := call.Args[1].(*ast.Ident); !ok || pass.Info.Uses[arg] != key {
		return false
	}
	// The collected slice must hit a sort after the loop.
	slice := objOf(pass, dst)
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pass.Info.Uses[pkg].(*types.PkgName); !ok ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.Info.Uses[id] == slice {
					sorted = true
				}
				return true
			})
		}
		return true
	})
	return sorted
}

// objOf resolves an identifier whether it is a use or a definition.
func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

// orderInsensitive reports whether every statement in the body is
// commutative accumulation, so any iteration order computes the same
// state: counters (x++/x--), op-assign folds (+= -= *= |= &= ^=),
// keyed writes into another map (dst[k] = ... — each key written at
// most once), idempotent boolean sets, min/max tracking ifs, and
// continue. A keyed write may not read variables the loop itself
// mutates, which would smuggle order back in.
func orderInsensitive(pass *analysis.Pass, body *ast.BlockStmt, key, val types.Object) bool {
	mutated := mutatedVars(pass, body)
	var stmtOK func(s ast.Stmt) bool
	stmtOK = func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.IncDecStmt:
			return true
		case *ast.AssignStmt:
			return assignOK(pass, st, key, mutated)
		case *ast.IfStmt:
			return minMaxIf(pass, st)
		case *ast.BranchStmt:
			return st.Tok == token.CONTINUE
		case *ast.EmptyStmt:
			return true
		case *ast.BlockStmt:
			for _, inner := range st.List {
				if !stmtOK(inner) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, s := range body.List {
		if !stmtOK(s) {
			return false
		}
	}
	return true
}

// assignOK accepts commutative-fold assignments and keyed map writes.
func assignOK(pass *analysis.Pass, st *ast.AssignStmt, key types.Object, mutated map[types.Object]bool) bool {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	case token.ASSIGN:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		idx, ok := st.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return false
		}
		// The write must be keyed by the iteration key, so each key is
		// written exactly once regardless of order…
		id, ok := idx.Index.(*ast.Ident)
		if !ok || key == nil || pass.Info.Uses[id] != key {
			return false
		}
		// …and the value must not read loop-mutated state.
		clean := true
		ast.Inspect(st.Rhs[0], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && mutated[pass.Info.Uses[id]] {
				clean = false
			}
			return true
		})
		return clean
	}
	return false
}

// minMaxIf accepts `if a < b { x = y }` shapes where the condition
// compares exactly the two sides of the assignment — order-insensitive
// min/max tracking.
func minMaxIf(pass *analysis.Pass, st *ast.IfStmt) bool {
	if st.Init != nil || st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	assign, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, rhs := types.ExprString(assign.Lhs[0]), types.ExprString(assign.Rhs[0])
	x, y := types.ExprString(cond.X), types.ExprString(cond.Y)
	return (lhs == x && rhs == y) || (lhs == y && rhs == x)
}

// mutatedVars collects every object assigned or inc/dec'd anywhere in
// the body (keyed map writes aside — those are the sanctioned sinks).
func mutatedVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := objOf(pass, id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(st.X)
		}
		return true
	})
	return out
}
