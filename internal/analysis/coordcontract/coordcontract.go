// Package coordcontract machine-enforces the sim.Coord calling
// convention that PR 9's race was a violation of: Block and Wake — and
// Park when it is handed a locker — must run with the owning shared
// structure's mutex held, acquired on every path into the call with no
// unlock in between. The contract is what keeps admission state and
// sleeper resumption agreeing on both engines: the waker needs the same
// lock the sleeper Blocked under, so the two sides are mutex-ordered.
//
// The check is flow-sensitive (internal/analysis/cfg + dataflow): a
// must-held analysis tracks the set of mutexes certainly held at every
// program point. Lock/RLock acquire, Unlock/RUnlock release; calls to
// lock-prefixed helper methods (lockShards) acquire a pseudo-mutex that
// the matching unlock-prefixed helper releases; `defer mu.Unlock()`
// releases nothing anywhere in the body (it runs at exit), which is
// exactly why the defer-unlock idiom passes.
//
// Two deliberate exemptions, both grounded in the Coord contract
// (internal/sim/engine.go):
//
//   - Park(id, nil) may run after the structure unlocks. The wake token
//     is buffered per actor, so a Wake landing between the unlock and
//     the park is not lost; determinism rests on Block and Wake, which
//     this analyzer still checks. (The sharded lock table's
//     reserve/park window is this shape.)
//   - A Coord method calling the same method on an inner Coord — a
//     forwarding wrapper like obs.CoordTracer — inherits its caller's
//     obligation instead of owning one.
package coordcontract

import (
	"go/ast"
	"go/types"
	"strings"

	"atomio/internal/analysis"
	"atomio/internal/analysis/cfg"
	"atomio/internal/analysis/dataflow"
)

// Analyzer is the coordcontract pass.
var Analyzer = &analysis.Analyzer{
	Name: "coordcontract",
	Doc:  "sim.Coord Block/Wake/Park(locker) sites must hold the owning structure's mutex on every path",
	Run:  run,
}

// scope lists the Coord client packages. The engines themselves
// (internal/sim, internal/sim/des) own the protocol and are exempt.
var scope = []string{"internal/lock", "internal/mpi", "internal/pfs", "internal/obs"}

// checked is the set of Coord methods carrying the under-lock
// obligation.
var checked = map[string]bool{"Block": true, "Wake": true, "Park": true}

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

// checkFunc runs the must-held analysis over one function and vets its
// Coord call sites.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	g := cfg.New(fd.Body)
	spec := dataflow.Spec[dataflow.Set[string]]{
		Boundary: dataflow.Set[string]{},
		Join:     dataflow.Intersect[string],
		Equal:    dataflow.EqualSets[string],
		Copy:     dataflow.CopySet[string],
		Transfer: func(b *cfg.Block, in dataflow.Set[string]) dataflow.Set[string] {
			for _, n := range b.Nodes {
				applyMutexOps(pass, n, in)
			}
			return in
		},
	}
	res := dataflow.Solve(g, spec)

	// Replay each reachable block, checking Coord calls at their exact
	// point inside the block (the held set changes mid-block).
	for _, b := range g.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		held := dataflow.CopySet(in)
		for _, n := range b.Nodes {
			checkNode(pass, fd, n, held)
			applyMutexOps(pass, n, held)
		}
	}
}

// checkNode reports every checked Coord call in n that runs without the
// required mutex held.
func checkNode(pass *analysis.Pass, fd *ast.FuncDecl, n ast.Node, held dataflow.Set[string]) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.RangeStmt:
			// Closures own their flow; a RangeStmt node is the loop's
			// dispatch — its body lives in other CFG blocks.
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := coordCall(pass, call)
		if !ok {
			return true
		}
		// Forwarding wrapper: a Coord method delegating to its inner
		// Coord inherits the caller's lock, it does not own one.
		if fd.Name.Name == name && fd.Recv != nil {
			return true
		}
		switch name {
		case "Park":
			if len(call.Args) != 2 {
				return true
			}
			l := lockerArg(call.Args[1])
			if l == "" {
				// Park(id, nil): token-buffered, legal after unlock.
				return true
			}
			if !held[l] {
				pass.Reportf(call.Pos(),
					"sim.Coord.Park sleeps on %s without holding it on every path into the call: acquire it first, with no unlock in between (the coordinator relocks it around the sleep)", l)
			}
		case "Block", "Wake":
			if len(held) == 0 {
				pass.Reportf(call.Pos(),
					"sim.Coord.%s called without the owning structure's mutex held on every path into the call: admission state and sleeper resumption can disagree (the PR 9 race class) — acquire the mutex first, with no unlock in between", name)
			}
		}
		return true
	})
}

// coordCall matches call as <expr>.Block/Wake/Park(...) where the
// receiver's static type is sim.Coord (the interface itself — every
// production call site and wrapper goes through the interface).
func coordCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !checked[sel.Sel.Name] {
		return "", false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Coord" || obj.Pkg() == nil {
		return "", false
	}
	if analysis.ModuleRel(obj.Pkg().Path()) != "internal/sim" {
		return "", false
	}
	return sel.Sel.Name, true
}

// lockerArg canonicalizes Park's locker argument: &t.mu yields "t.mu",
// a plain locker expression yields its own form, nil (or any non-
// addressed nil-able) yields "".
func lockerArg(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return ""
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		return types.ExprString(u.X)
	}
	return types.ExprString(e)
}

// applyMutexOps folds the mutex operations of one CFG node into the
// held set. Deferred unlocks run at exit, not here; function literals
// own their flow.
func applyMutexOps(pass *analysis.Pass, n ast.Node, held dataflow.Set[string]) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.RangeStmt:
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		desc, acquire, ok := mutexOp(pass, call)
		if !ok {
			return true
		}
		if acquire {
			held[desc] = true
		} else {
			delete(held, desc)
		}
		return true
	})
}

// mutexOp classifies a call as a mutex acquisition or release and
// returns the canonical descriptor of what it holds. Three shapes
// count:
//
//   - x.Lock()/x.RLock()/x.Unlock()/x.RUnlock() on sync.Mutex/RWMutex
//     (or any named Locker-shaped type): descriptor is x's expression.
//   - lock-prefixed helper methods (st.lockShards(ids)) acquire the
//     pseudo-mutex "st.lockShards"; the unlock-prefixed twin
//     (st.unlockShards) releases it.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (desc string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name := sel.Sel.Name
	// Bare mutex methods take no arguments; the lock Manager interface's
	// Lock/Unlock (owner, extent, time) never match.
	if len(call.Args) == 0 {
		switch name {
		case "Lock", "RLock":
			return types.ExprString(sel.X), true, true
		case "Unlock", "RUnlock":
			return types.ExprString(sel.X), false, true
		}
	}
	recv := types.ExprString(sel.X)
	if strings.HasPrefix(name, "lock") && len(name) > len("lock") {
		return recv + "." + name, true, true
	}
	if strings.HasPrefix(name, "unlock") && len(name) > len("unlock") {
		return recv + "." + strings.TrimPrefix(name, "un"), false, true
	}
	return "", false, false
}
