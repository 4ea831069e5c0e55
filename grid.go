package atomio

import (
	"fmt"

	"atomio/internal/platform"
	"atomio/internal/runner"
)

// Re-exported grid-execution types: RunGrid and the named grids speak the
// runner's own vocabulary, so results flow to the emitters unchanged.
type (
	// Size is one array shape of a grid.
	Size = runner.Size
	// Cell is one experiment of a grid, tagged with a stable identifier.
	Cell = runner.Cell
	// CellResult is the outcome of one cell.
	CellResult = runner.CellResult
	// Record is one cell's outcome flattened for machine consumption
	// (the atomio.bench/v1 schema).
	Record = runner.Record
	// RunOptions configures a grid run (worker count, progress callback).
	RunOptions = runner.Options
	// ProgressFunc observes cell completions during a grid run.
	ProgressFunc = runner.ProgressFunc
)

// Grid is a cross-product of experiment parameters: the axes are named —
// platforms and strategies are registry names resolved when Cells is
// called — and every setting the cells share is an Option, the same ones
// New takes. Cells enumerate in the paper's layout order: sizes, then
// platforms, then process counts, then strategies.
type Grid struct {
	// Platforms are registered platform names; empty means every
	// registered platform in registration order.
	Platforms []string
	Sizes     []Size
	Procs     []int
	// Strategies are registered strategy names; empty means the paper's
	// per-platform set, which omits locking on platforms without it.
	Strategies []string
	// SkipUnsupported drops locking cells on platforms without byte-range
	// locking instead of producing cells that fail.
	SkipUnsupported bool
	// Options set what every cell shares (Overlap, Pattern, Verify,
	// Servers, TraceEvents, ...) over New's defaults; the axes above
	// override Platform, Array, Procs and Strategy per cell.
	Options []Option
}

// Cells resolves the grid's names through the registries and expands it
// into runnable cells with canonical IDs. Cells are validated when run.
func (g Grid) Cells() ([]Cell, error) {
	base, err := build(g.Options)
	if err != nil {
		return nil, err
	}
	rg := runner.Grid{
		Sizes:           g.Sizes,
		Procs:           g.Procs,
		SkipUnsupported: g.SkipUnsupported,
		Base:            base.Experiment,
	}
	names := g.Platforms
	if len(names) == 0 {
		names = Platforms()
	}
	for _, name := range names {
		prof, err := PlatformByName(name)
		if err != nil {
			return nil, err
		}
		rg.Platforms = append(rg.Platforms, prof)
	}
	for _, name := range g.Strategies {
		strat, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		rg.Strategies = append(rg.Strategies, strat)
	}
	return rg.Cells(), nil
}

// WithPlatform narrows the grid to one platform by Table 1 name.
func (g Grid) WithPlatform(name string) (Grid, error) {
	names := g.Platforms
	if len(names) == 0 {
		names = Platforms()
	}
	for _, have := range names {
		if have == name {
			g.Platforms = []string{name}
			return g, nil
		}
	}
	return g, fmt.Errorf("atomio: no platform %q in grid", name)
}

// WithSize narrows the grid to one array size by label.
func (g Grid) WithSize(label string) (Grid, error) {
	for _, size := range g.Sizes {
		if runner.SizeLabel(size) == label {
			g.Sizes = []Size{size}
			return g, nil
		}
	}
	return g, fmt.Errorf("atomio: no array size %q in grid", label)
}

// Figure8 is the paper's full Figure 8 evaluation: three array sizes on
// three platforms, written by 4, 8 and 16 processes with every applicable
// strategy, column-wise. It is the runner's grid with the platforms named,
// so the platform list stays the paper's Table 1 three regardless of later
// registrations.
func Figure8() Grid {
	rg := runner.Figure8Grid()
	g := Grid{
		Sizes:           rg.Sizes,
		Procs:           append([]int(nil), rg.Procs...),
		SkipUnsupported: rg.SkipUnsupported,
		Options:         []Option{Overlap(rg.Base.Overlap), Pattern(rg.Base.Pattern.String())},
	}
	for _, prof := range rg.Platforms {
		g.Platforms = append(g.Platforms, prof.Name)
	}
	return g
}

// Scaling returns the large-P scaling cells: process counts up to 1024
// with non-contiguous interleaved views (see the figure8 -scale mode).
func Scaling() []Cell { return runner.ScalingGrid() }

// ScalingTo returns the scaling cells with process counts up to maxP, which
// may extend past the classic grid into the extended points (2048, 4096,
// 8192 and 16384 processes — see runner.ScalingGridTo).
func ScalingTo(maxP int) []Cell { return runner.ScalingGridTo(maxP) }

// Degraded returns the degraded-server scenario cells: healthy baseline,
// one slow server, a hot server absorbing skewed affinity, and a
// server-count rebalance. Perturbed cells are explicitly non-comparable to
// healthy Figure 8 output.
func Degraded() []Cell { return runner.DegradedGrid() }

// Fleet returns the seeded failure-injection fleet: cell 0 is a pinned
// negative control (torn by construction), and the remaining cells are
// randomized (platform × strategy × pattern × fault-script × recovery)
// draws from the seed alone, so a fleet is reproduced exactly by
// (seed, cells).
func Fleet(seed uint64, cells int) []Cell { return runner.FleetGrid(seed, cells) }

// FleetGate enforces the fleet's acceptance property over its results:
// every cell completes with a verdict, no recovery-enabled cell is torn,
// and at least one cell (the negative control) is torn — proving the
// verifier can reject.
func FleetGate(results []CellResult) error { return runner.FleetGate(results) }

// ShrinkCell reduces a failing fleet cell to a smaller cell that still
// satisfies bad — dropping fault events, then halving processes, shape and
// overlap — probing at most budget runs.
func ShrinkCell(cell Cell, bad func(CellResult) bool, budget int) Cell {
	return runner.Shrink(cell, bad, budget)
}

// RunGrid executes every cell concurrently on a bounded worker pool and
// returns results in cell order; a failing cell never aborts its siblings.
func RunGrid(cells []Cell, opts RunOptions) []CellResult {
	return runner.Run(cells, opts)
}

// FirstErr returns the first failing result in grid order, or nil.
func FirstErr(results []CellResult) error { return runner.FirstErr(results) }

// Records flattens results into atomio.bench/v1 records, in grid order.
func Records(results []CellResult) []Record { return runner.Records(results) }

// EmitFiles writes results to the requested paths — JSON, CSV, or both.
// Empty paths are skipped.
func EmitFiles(jsonPath, csvPath string, results []CellResult) error {
	return runner.EmitFiles(jsonPath, csvPath, results)
}

// CellID builds the canonical cell identifier used in sub-benchmark names
// and result records: "platform/size/P<procs>/strategy".
func CellID(platformName, sizeLabel string, procs int, strategy string) string {
	return runner.CellID(platformName, sizeLabel, procs, strategy)
}

// Table1 renders the paper's Table 1: the system configurations of the
// three experimental platforms.
func Table1() string { return platform.Table1() }

// PlatformParams renders the derived simulator parameters each platform
// feeds the file-system model.
func PlatformParams() string { return platform.Params() }
