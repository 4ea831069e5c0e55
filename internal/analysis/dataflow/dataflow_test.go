package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"atomio/internal/analysis/cfg"
)

// checkFunc parses and type-checks src, returning the named function's
// declaration, its CFG, and the type info.
func checkFunc(t *testing.T, src, name string) (*ast.FuncDecl, *cfg.Graph, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, cfg.New(fd.Body), info
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil, nil
}

// TestSolveMustIntersection pins the solver on a hand-built must-problem:
// "which string constants were certainly produced on every path". The
// fact is the set of assignment statements seen; the join is
// intersection, so only the pre-branch assignment survives the merge.
func TestSolveMustIntersection(t *testing.T) {
	_, g, _ := checkFunc(t, `package p
func f(a int) int {
	x := 1
	if a > 0 {
		x = 2
	} else {
		x = 3
	}
	return x
}`, "f")
	spec := Spec[Set[string]]{
		Boundary: Set[string]{},
		Join:     Intersect[string],
		Equal:    EqualSets[string],
		Copy:     CopySet[string],
		Transfer: func(b *cfg.Block, in Set[string]) Set[string] {
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok {
					in[types.ExprString(as.Rhs[0])] = true
				}
			}
			return in
		},
	}
	res := Solve(g, spec)
	exit := res.In[g.Exit]
	if !exit["1"] {
		t.Errorf("assignment before the branch must reach exit on every path: %v", exit)
	}
	if exit["2"] || exit["3"] {
		t.Errorf("branch-arm assignments must not survive the intersection join: %v", exit)
	}
}

// TestSolveMayUnion runs the same program with a union join: both arms'
// assignments reach the exit on some path.
func TestSolveMayUnion(t *testing.T) {
	_, g, _ := checkFunc(t, `package p
func f(a int) int {
	x := 1
	if a > 0 {
		x = 2
	} else {
		x = 3
	}
	return x
}`, "f")
	spec := Spec[Set[string]]{
		Boundary: Set[string]{},
		Join:     Union[string],
		Equal:    EqualSets[string],
		Copy:     CopySet[string],
		Transfer: func(b *cfg.Block, in Set[string]) Set[string] {
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok {
					in[types.ExprString(as.Rhs[0])] = true
				}
			}
			return in
		},
	}
	res := Solve(g, spec)
	exit := res.In[g.Exit]
	for _, want := range []string{"1", "2", "3"} {
		if !exit[want] {
			t.Errorf("union join should carry assignment %s to exit: %v", want, exit)
		}
	}
}

// TestSolveLoopFixpoint pins convergence on a loop: a fact generated in
// the body flows around the back edge and stabilizes.
func TestSolveLoopFixpoint(t *testing.T) {
	_, g, _ := checkFunc(t, `package p
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = 7
	}
	return x
}`, "f")
	spec := Spec[Set[string]]{
		Boundary: Set[string]{},
		Join:     Union[string],
		Equal:    EqualSets[string],
		Copy:     CopySet[string],
		Transfer: func(b *cfg.Block, in Set[string]) Set[string] {
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok {
					in[types.ExprString(as.Rhs[0])] = true
				}
			}
			return in
		},
	}
	res := Solve(g, spec)
	exit := res.In[g.Exit]
	if !exit["0"] || !exit["7"] {
		t.Errorf("loop-carried facts must reach exit: %v", exit)
	}
}

// taintOn runs the taint walk with `now()` as the only source and
// returns the names of tainted identifiers reported by the visit.
func taintOn(t *testing.T, src string) map[string]bool {
	t.Helper()
	_, g, info := checkFunc(t, src, "f")
	isSource := func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "now"
	}
	res := Taint(g, info, isSource)
	got := map[string]bool{}
	res.Visit(func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			got[id.Name] = true
		}
	})
	return got
}

func TestTaintPropagatesThroughAssignments(t *testing.T) {
	got := taintOn(t, `package p
func now() int64 { return 0 }
func f() int64 {
	w := now()
	d := w + 5
	clean := int64(3)
	_ = clean
	return d
}`)
	if !got["w"] || !got["d"] {
		t.Errorf("taint should flow now() -> w -> d: %v", got)
	}
	if got["clean"] {
		t.Errorf("clean must stay untainted: %v", got)
	}
}

func TestTaintStrongUpdateKills(t *testing.T) {
	got := taintOn(t, `package p
func now() int64 { return 0 }
func f() int64 {
	w := now()
	w = 4
	return w
}`)
	// After the strong update, the returned w is clean — but the visit
	// also sees w's tainted period... the only report sites are uses,
	// and w is used only in the return, after the kill.
	if got["w"] {
		t.Errorf("reassigned w must be clean at its only use: %v", got)
	}
}

func TestTaintBranchJoin(t *testing.T) {
	got := taintOn(t, `package p
func now() int64 { return 0 }
func f(a int) int64 {
	var w int64
	if a > 0 {
		w = now()
	}
	return w
}`)
	if !got["w"] {
		t.Errorf("taint on one branch must survive the union join: %v", got)
	}
}

func TestEscapesReturnedAndStored(t *testing.T) {
	fd, _, info := checkFunc(t, `package p
type T struct{ n int }
var sink *T
func f() *T {
	local := &T{n: 1}   // stays local until returned
	kept := &T{n: 2}    // never leaves
	_ = kept
	sink = &T{n: 3}     // stored to a global
	return local
}`, "f")
	esc := Escapes(info, fd.Body)
	byN := map[string]bool{}
	for e := range esc {
		u := e.(*ast.UnaryExpr)
		cl := u.X.(*ast.CompositeLit)
		kv := cl.Elts[0].(*ast.KeyValueExpr)
		byN[types.ExprString(kv.Value)] = true
	}
	if !byN["1"] {
		t.Errorf("returned allocation must escape: %v", byN)
	}
	if byN["2"] {
		t.Errorf("purely local allocation must not escape: %v", byN)
	}
	if !byN["3"] {
		t.Errorf("global-stored allocation must escape: %v", byN)
	}
}

func TestEscapesThroughCopyAndCall(t *testing.T) {
	fd, _, info := checkFunc(t, `package p
type T struct{ n int }
func g(*T) {}
func f() {
	a := &T{n: 1}
	b := a
	g(b) // a escapes via the copy into the call
	c := &T{n: 2}
	_ = c
}`, "f")
	esc := Escapes(info, fd.Body)
	byN := map[string]bool{}
	for e := range esc {
		u := e.(*ast.UnaryExpr)
		cl := u.X.(*ast.CompositeLit)
		kv := cl.Elts[0].(*ast.KeyValueExpr)
		byN[types.ExprString(kv.Value)] = true
	}
	if !byN["1"] {
		t.Errorf("allocation passed to a call through a copy must escape: %v", byN)
	}
	if byN["2"] {
		t.Errorf("unused local allocation must not escape: %v", byN)
	}
}

func TestEscapesClosureCapture(t *testing.T) {
	fd, _, info := checkFunc(t, `package p
type T struct{ n int }
var fns []func() int
func f() {
	a := &T{n: 1}
	fns = append(fns, func() int { return a.n })
}`, "f")
	esc := Escapes(info, fd.Body)
	if len(esc) != 1 {
		t.Errorf("closure-captured allocation must escape, got %d escapes", len(esc))
	}
}
