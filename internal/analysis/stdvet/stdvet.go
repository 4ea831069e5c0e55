// Package stdvet hardens the standard `go vet` surface inside the same
// atomiovet multichecker, so one binary runs the custom contract
// analyzers and the general-correctness passes together: Shadow (an
// inner := rebinds a name whose outer binding is still used afterwards
// — the classic swallowed-err shape) and Nilness (a pointer compared to
// nil immediately after it was provably non-nil, or dereferenced on the
// branch where it is nil). Neither is in `go vet ./...`'s default set;
// copying a lock by value is, so it is left to vet's copylocks. They are
// adjacent to, not clones of, upstream's passes: narrower where upstream
// needs SSA, deliberately zero-config.
package stdvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"atomio/internal/analysis"
)

// Shadow reports inner short declarations that rebind a function-local
// name whose outer binding is used again after the inner scope ends.
var Shadow = &analysis.Analyzer{
	Name: "shadow",
	Doc:  "inner declaration shadows an outer variable that is used after the inner scope ends",
	Run:  runShadow,
}

// Nilness reports trivially decidable nil mistakes.
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc:  "nil checks of provably non-nil values; uses of provably nil values",
	Run:  runNilness,
}

// --- shadow ---

func runShadow(pass *analysis.Pass) error {
	params := paramIdents(pass)
	for id, obj := range pass.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || v.Name() == "_" || v.IsField() || params[id] {
			continue
		}
		inner := v.Parent()
		if inner == nil || inner == pass.Pkg.Scope() {
			continue
		}
		// Walk enclosing function-local scopes for an earlier binding
		// of the same name.
		for s := inner.Parent(); s != nil && s != pass.Pkg.Scope() && s != types.Universe; s = s.Parent() {
			outer := s.Lookup(v.Name())
			if outer == nil {
				continue
			}
			ov, ok := outer.(*types.Var)
			if !ok || ov == v || ov.Pos() >= v.Pos() {
				break
			}
			if usedAfter(pass, ov, inner.End()) {
				pass.Reportf(id.Pos(),
					"declaration of %q shadows the declaration at %s, which is used again after this scope ends",
					v.Name(), pass.Fset.Position(ov.Pos()))
			}
			break
		}
	}
	return nil
}

// paramIdents collects every identifier naming a function parameter,
// result, or receiver — including inside func literals and bare func
// type expressions. Parameter names are declaration-site syntax (the
// canonical `sort.Search(n, func(i int) bool` idiom shadows on purpose),
// not the `:=` rebinding hazard shadow exists to catch.
func paramIdents(pass *analysis.Pass) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	markList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				out[name] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncType:
				markList(v.Params)
				markList(v.Results)
			case *ast.FuncDecl:
				markList(v.Recv)
			}
			return true
		})
	}
	return out
}

// usedAfter reports whether obj has a use positioned after end.
func usedAfter(pass *analysis.Pass, obj types.Object, end token.Pos) bool {
	for id, o := range pass.Info.Uses {
		if o == obj && id.Pos() > end {
			return true
		}
	}
	return false
}

// --- nilness ---

func runNilness(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if ok {
				checkFreshNonNil(pass, block)
			}
			ifst, ok := n.(*ast.IfStmt)
			if ok {
				checkNilBranch(pass, ifst)
			}
			return true
		})
	}
	return nil
}

// checkFreshNonNil flags `x := &T{…}` / `x := new(T)` directly followed
// by a nil check of x: the comparison is decided at compile time.
func checkFreshNonNil(pass *analysis.Pass, block *ast.BlockStmt) {
	for i := 0; i+1 < len(block.List); i++ {
		assign, ok := block.List[i].(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			continue
		}
		target, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || !freshPointer(assign.Rhs[0]) {
			continue
		}
		ifst, ok := block.List[i+1].(*ast.IfStmt)
		if !ok || ifst.Init != nil {
			continue
		}
		if cmp, varName := nilComparison(pass, ifst.Cond); cmp != nil && varName == target.Name {
			pass.Reportf(cmp.Pos(),
				"%s cannot be nil here: it was assigned a fresh allocation on the previous line", target.Name)
		}
	}
}

// freshPointer reports whether e is &composite or new(T).
func freshPointer(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.UnaryExpr:
		if v.Op != token.AND {
			return false
		}
		_, isComposite := v.X.(*ast.CompositeLit)
		return isComposite
	case *ast.CallExpr:
		id, ok := v.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// nilComparison matches `x == nil` or `x != nil` and returns x's name.
func nilComparison(pass *analysis.Pass, e ast.Expr) (*ast.BinaryExpr, string) {
	cmp, ok := e.(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
		return nil, ""
	}
	x, y := cmp.X, cmp.Y
	if isNil(pass, x) {
		x, y = y, x
	}
	if !isNil(pass, y) {
		return nil, ""
	}
	if id, ok := x.(*ast.Ident); ok {
		return cmp, id.Name
	}
	return nil, ""
}

// isNil reports whether e is the predeclared nil.
func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.Info.Uses[id].(*types.Nil)
	return isNilObj
}

// checkNilBranch flags field accesses and dereferences of x inside the
// `x == nil` branch, before any reassignment of x.
func checkNilBranch(pass *analysis.Pass, ifst *ast.IfStmt) {
	cmp, name := nilComparison(pass, ifst.Cond)
	if cmp == nil || cmp.Op != token.EQL {
		return
	}
	id, _ := cmp.X.(*ast.Ident)
	if id == nil {
		id, _ = cmp.Y.(*ast.Ident)
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return
	}
	if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
		return
	}
	reassigned := false
	ast.Inspect(ifst.Body, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if l, ok := lhs.(*ast.Ident); ok && pass.Info.Uses[l] == obj {
					reassigned = true
				}
			}
		case *ast.SelectorExpr:
			base, ok := v.X.(*ast.Ident)
			if !ok || pass.Info.Uses[base] != obj {
				return true
			}
			if sel, ok := pass.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
				pass.Reportf(v.Pos(), "nil dereference: %s is nil on this branch", name)
			}
		case *ast.StarExpr:
			if base, ok := v.X.(*ast.Ident); ok && pass.Info.Uses[base] == obj {
				pass.Reportf(v.Pos(), "nil dereference: %s is nil on this branch", name)
			}
		}
		return true
	})
}
