// Package runner orchestrates grids of experiments: it executes independent
// harness.Experiment cells concurrently on a bounded worker pool, captures
// per-cell errors without aborting sibling cells, preserves deterministic
// result ordering regardless of scheduling, and emits results as JSON or CSV
// for machine consumption. A Grid is axes plus a Base experiment — each cell
// is Base with the axis fields set — so a per-cell setting is declared once,
// on harness.Experiment, and never mirrored here.
//
// Every cell is one independent virtual-time simulation, so running cells in
// parallel changes only wall-clock time, never the simulated results: the
// bandwidths produced with N workers are identical to those produced with
// one.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"atomio/internal/harness"
)

// Cell is one experiment of a grid, tagged with a stable identifier.
type Cell struct {
	// ID names the cell, canonically "platform/size/P<procs>/strategy"
	// (the layout used for Figure 8 sub-benchmark names).
	ID string
	// Experiment is the cell's full parameter set.
	Experiment harness.Experiment
}

// CellResult is the outcome of one cell.
type CellResult struct {
	Cell Cell
	// Result is the experiment's outcome; nil when Err is set.
	Result *harness.Result
	// Err is the cell's failure, if any. A failing cell never aborts its
	// siblings; callers inspect each result.
	Err error
	// Wall is the real (not virtual) time the cell took to simulate.
	Wall time.Duration
}

// ProgressFunc observes cell completions. done counts finished cells (1-based),
// total is the grid size. Calls are serialized; completions arrive in
// whatever order cells finish, not grid order.
type ProgressFunc func(done, total int, r CellResult)

// Options configures a Run.
type Options struct {
	// Workers bounds the number of cells simulating concurrently;
	// 0 or negative means runtime.NumCPU().
	Workers int
	// Progress, when non-nil, is invoked after each cell completes.
	Progress ProgressFunc
}

// Run executes every cell and returns results in cell order: results[i]
// always corresponds to cells[i], whatever the execution interleaving. A
// cell that returns an error or panics is captured in its CellResult and
// the remaining cells still run.
func Run(cells []Cell, opts Options) []CellResult {
	results := make([]CellResult, len(cells))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		return results
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes Progress and the done counter
		done int
		jobs = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runCell(cells[i])
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, len(cells), results[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runCell executes one cell, converting a panic inside the simulation into
// an ordinary per-cell error so sibling cells keep running.
func runCell(c Cell) (out CellResult) {
	out.Cell = c
	//atomiovet:allow simclock wall_ns measures real host time and is reported beside, never inside, simulated results
	start := time.Now()
	defer func() {
		//atomiovet:allow simclock wall_ns measures real host time and is reported beside, never inside, simulated results
		out.Wall = time.Since(start)
		if p := recover(); p != nil {
			out.Result = nil
			out.Err = fmt.Errorf("runner: cell %s panicked: %v", c.ID, p)
		}
	}()
	out.Result, out.Err = c.Experiment.Run()
	return out
}

// FirstErr returns the first failing result in grid order, or nil.
func FirstErr(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Cell.ID, r.Err)
		}
	}
	return nil
}
