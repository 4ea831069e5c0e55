// Package simclock forbids host wall-clock and unseeded randomness
// anywhere in the module but the analysis suite, so virtual time (the
// only time the paper's figures report) can never be contaminated by the
// machine the simulation happens to run on. The determinism contract —
// figure8 output byte-identical at any worker count — survives only while
// time.Now, time.Since, and math/rand's process-seeded global source
// stay out of every package that feeds simulated output, and the binaries
// print that output. The runner's wall_ns measurement site is the one
// sanctioned exception, carried as //atomiovet:allow comments with its
// rationale; that its value stays beside the results, never inside them,
// is pinned by runner's TestRunRepeatable and TestRunOrderDeterministic.
//
// The same contract needs one thread inside a cell. The event-loop engine
// runs one actor at a time, so no simulator structure carries a lock, and
// a goroutine started inside a cell would race on all of them. So in the
// internal packages every go statement and every import of sync or
// sync/atomic is reported too. internal/runner is exempt: its worker pool
// runs whole cells in parallel, and cells share no simulator state.
package simclock

import (
	"go/ast"
	"go/types"
	"strconv"

	"atomio/internal/analysis"
)

// Analyzer is the simclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc:  "forbid wall-clock reads and unseeded randomness, and goroutines and sync inside a cell",
	Run:  run,
}

// outside lists the module subtrees the pass skips: the analysis suite,
// which never touches virtual time and whose fixtures break contracts on
// purpose. Everything else is in scope, the binaries included: a
// wall-clock read anywhere else needs a reasoned allow.
var outside = []string{"internal/analysis"}

// threaded is the subtree whose packages run inside a cell, on the
// engine's one thread, and pool the one package in it that runs cells on
// a worker pool.
const threaded, pool = "internal", "internal/runner"

// wallClock is the banned surface of package time: functions that read
// or schedule against the host clock. Pure conversions and constants
// (time.Duration, time.Unix arithmetic) stay legal.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// seeded lists the math/rand and math/rand/v2 names that construct
// explicitly-seeded generators and therefore stay legal; every other
// function in those packages draws from the process-seeded global
// source.
var seeded = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	rel := analysis.ModuleRel(pass.Pkg.Path())
	if analysis.InAnyScope(rel, outside) {
		return nil
	}
	oneThread := analysis.HasPathPrefix(rel, threaded) && !analysis.HasPathPrefix(rel, pool)
	for _, f := range pass.Files {
		if oneThread {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					pass.Reportf(imp.Pos(),
						"import of %s inside a cell: the engine runs one actor at a time, so simulator state needs no locks",
						path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && oneThread {
				pass.Reportf(g.Pos(),
					"go statement inside a cell: every actor runs on the engine's one thread (a peer that must run is a Coord actor)")
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if wallClock[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"time.%s reads the host clock: results are virtual time only (use sim.VTime); a host-time measurement needs a reasoned allow",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if !seeded[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"rand.%s draws from the process-seeded global source: use rand.New with an explicit experiment seed",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
