package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"atomio/internal/analysis/cfg"
)

// cfgOf parses src and returns the CFG of its function f.
func cfgOf(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return cfg.New(fd.Body)
		}
	}
	t.Fatal("no function f")
	return nil
}

// TestSolveMustIntersection pins the solver on a hand-built must-problem:
// "which string constants were certainly produced on every path". The
// fact is the set of assignment statements seen; the join is
// intersection, so only the pre-branch assignment survives the merge.
func TestSolveMustIntersection(t *testing.T) {
	g := cfgOf(t, `package p
func f(a int) int {
	x := 1
	if a > 0 {
		x = 2
	} else {
		x = 3
	}
	return x
}`)
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
	g := cfgOf(t, `package p
func f(a int) int {
	x := 1
	if a > 0 {
		x = 2
	} else {
		x = 3
	}
	return x
}`)
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
	g := cfgOf(t, `package p
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = 7
	}
	return x
}`)
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
