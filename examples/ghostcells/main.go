// Ghostcells reproduces the paper's motivating scenario (Figure 1): a 2-D
// array partitioned block-block over a process grid, each process holding
// ghost cells around its block, so neighbouring sub-arrays overlap and the
// ghost-ring corners are written by four processes at once. The program
// shows the conflict structure first — Spec.Conflicts exposes the paper's
// P×P overlap matrix W and its greedy coloring (4 colors on the 2-D grid
// instead of column-wise's 2) — then checkpoints the array with each
// atomicity strategy and verifies the overlapped regions, all through the
// public atomio facade.
//
// Run: go run ./examples/ghostcells
package main

import (
	"fmt"
	"log"

	"atomio"
)

const (
	M, N   = 96, 96 // global array
	Px, Py = 3, 3   // process grid
	R      = 4      // ghost width (overlap)
)

func main() {
	const platform = "IBM SP"

	spec, err := atomio.New(
		atomio.Platform(platform),
		atomio.Array(M, N),
		atomio.Procs(Px*Py),
		atomio.Overlap(R),
		atomio.Pattern("block"),
		atomio.Verify(true),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Show the conflict structure first: the overlap matrix of the 3x3
	// ghost-cell grid and its greedy coloring.
	conflicts, err := spec.Conflicts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block-block %dx%d over a %dx%d grid, ghost width %d\n", M, N, Px, Py, R)
	fmt.Printf("overlap matrix W:\n%v\n", conflicts)
	fmt.Printf("greedy coloring: %v (%d I/O phases; column-wise needs only 2)\n\n",
		conflicts.Colors, conflicts.Phases)

	// Checkpoint with each strategy and verify.
	methods, err := atomio.Methods(platform)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range methods {
		if spec.Strategy, err = atomio.StrategyByName(name); err != nil {
			log.Fatal(err)
		}
		res, err := spec.Run()
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Report
		status := "atomic"
		if !rep.Atomic() {
			status = "VIOLATED"
		}
		fmt.Printf("%-10s checkpoint: %s, %3d overlapped atoms (%5d bytes), virtual time %v\n",
			name, status, rep.Atoms, rep.OverlappedBytes, res.Makespan)
	}
}
