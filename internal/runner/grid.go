package runner

import (
	"fmt"
	"slices"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/pfs/scenario"
	"atomio/internal/platform"
)

// Size is one array shape of a grid.
type Size struct {
	M, N int
	// Label names the size in cell IDs ("32 MB"); empty derives "MxN".
	Label string
}

func (s Size) label() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("%dx%d", s.M, s.N)
}

// SizeLabel names a size the way cell IDs do ("32 MB", or the derived
// "MxN" when unlabeled) — the single definition label-based filters must
// share so they cannot drift from generated cell IDs.
func SizeLabel(s Size) string { return s.label() }

// Grid is a cross-product of experiment parameters: four axes plus the
// settings every cell shares. Cells enumerates it in the paper's layout
// order: sizes, then platforms, then process counts, then strategies — the
// order Figure 8 and the benchmark suite both use.
type Grid struct {
	Platforms []platform.Profile
	Sizes     []Size
	Procs     []int
	// Strategies to measure; nil means the paper's per-platform set
	// (harness.Methods), which omits locking on platforms without it.
	Strategies []core.Strategy
	// SkipUnsupported drops locking cells on platforms without byte-range
	// locking instead of producing cells that fail.
	SkipUnsupported bool
	// Base carries every other setting (overlap, pattern, data mode, model
	// parameters, tracing); each cell is Base with the axis fields set.
	Base harness.Experiment
}

// CellID builds the canonical cell identifier used in Figure 8
// sub-benchmark names and result records.
func CellID(platform, sizeLabel string, procs int, strategy string) string {
	return fmt.Sprintf("%s/%s/P%d/%s", platform, sizeLabel, procs, strategy)
}

// Cells expands the grid into runnable cells with canonical IDs.
func (g Grid) Cells() []Cell {
	var cells []Cell
	for _, size := range g.Sizes {
		for _, prof := range g.Platforms {
			strategies := g.Strategies
			if strategies == nil {
				strategies = harness.Methods(prof)
			}
			for _, procs := range g.Procs {
				for _, strat := range strategies {
					if g.SkipUnsupported && strat.Name() == "locking" && !prof.SupportsLocking() {
						continue
					}
					e := g.Base
					e.Platform, e.M, e.N, e.Procs, e.Strategy = prof, size.M, size.N, procs, strat
					cells = append(cells, Cell{
						ID:         CellID(prof.Name, size.label(), procs, strat.Name()),
						Experiment: e,
					})
				}
			}
		}
	}
	return cells
}

// Figure8Grid is the paper's full Figure 8 evaluation: three array sizes on
// three platforms, written by 4, 8 and 16 processes with every applicable
// strategy, column-wise. This is the single definition the figure8 command
// and the benchmark suite both enumerate.
func Figure8Grid() Grid {
	sizes := make([]Size, len(harness.Figure8Sizes))
	for i, s := range harness.Figure8Sizes {
		sizes[i] = Size{M: harness.Figure8M, N: s.N, Label: s.Label}
	}
	return Grid{
		Platforms:       platform.All(),
		Sizes:           sizes,
		Procs:           harness.Figure8Procs,
		SkipUnsupported: true,
		Base:            harness.Experiment{Overlap: harness.Figure8Overlap, Pattern: harness.ColumnWise},
	}
}

// ScalingPoint is one cell shape of the large-P scaling grid: Procs ranks
// writing an M×N byte array column-wise, so every rank's view has M
// non-contiguous extents and neighbouring views interleave.
type ScalingPoint struct {
	Procs int
	M, N  int
}

// ScalingPoints pairs process counts with per-rank extent counts: every
// cell moves the same M·N = 16 MB, so the largest process counts carry fewer
// extents per rank — thousands at moderate P, leaner views at P=1024.
var ScalingPoints = []ScalingPoint{
	{Procs: 64, M: 4096, N: 64 * 64},
	{Procs: 256, M: 1024, N: 256 * 64},
	{Procs: 1024, M: 64, N: 1024 * 64},
}

// ExtendedScalingPoints continue the grid past the classic 1024-rank
// ceiling, the regime the event-loop engine exists for: a P=16384 cell is
// 16384 coroutines in one scheduler loop, and a handshake's opening
// allgather — or two-phase I/O's alltoall — one rendezvous, not 268M
// simulated messages.
var ExtendedScalingPoints = []ScalingPoint{
	{Procs: 2048, M: 32, N: 2048 * 64},
	{Procs: 4096, M: 16, N: 4096 * 64},
	{Procs: 8192, M: 8, N: 8192 * 64},
	{Procs: 16384, M: 4, N: 16384 * 64},
}

// ScalingOverlap is the overlap column count of the scaling grid (even,
// below the 64-column partition width).
const ScalingOverlap = 16

// ScalingGrid is the large-P scaling study the interval index exists for:
// process counts up to 1024 with non-contiguous interleaved views, run
// column-wise on one locking-capable platform with the paper's strategy
// set and two-phase I/O. Unlike Figure8Grid it pairs each process count
// with its own array shape, so it enumerates cells directly.
func ScalingGrid() []Cell { return ScalingGridTo(1024) }

// ScalingGridTo returns the scaling cells — ScalingPoints, then
// ExtendedScalingPoints, the paper's strategies and two-phase I/O on each —
// with process counts up to maxP. ScalingGridTo(1024) is exactly
// ScalingGrid.
func ScalingGridTo(maxP int) []Cell {
	prof := platform.IBMSP()
	var cells []Cell
	for _, pt := range append(slices.Clone(ScalingPoints), ExtendedScalingPoints...) {
		if pt.Procs > maxP {
			continue
		}
		label := fmt.Sprintf("%dx%d", pt.M, pt.N)
		for _, strat := range append(harness.Methods(prof), core.TwoPhase{}) {
			cells = append(cells, Cell{
				ID: CellID(prof.Name, label, pt.Procs, strat.Name()),
				Experiment: harness.Experiment{
					Platform: prof,
					M:        pt.M,
					N:        pt.N,
					Procs:    pt.Procs,
					Overlap:  ScalingOverlap,
					Pattern:  harness.ColumnWise,
					Strategy: strat,
				},
			})
		}
	}
	return cells
}

// ShardSweepGrid returns four identical copies of one contended locking
// cell: P ranks writing column-wise with interleaved non-contiguous views on
// the central-manager platform. Its cell IDs, "+S<n>" size-label suffixes
// included, are names the benchmark's lock-scale workload pins; the function
// goes when that workload stops calling it.
func ShardSweepGrid() []Cell {
	prof := platform.Origin2000()
	const m, n, procs = 512, 64 * 64, 64
	strat, err := core.ByName("locking")
	if err != nil {
		panic(err)
	}
	label := fmt.Sprintf("%dx%d", m, n)
	var cells []Cell
	for _, s := range []int{1, 2, 4, 8} {
		cells = append(cells, Cell{
			ID: CellID(prof.Name, fmt.Sprintf("%s+S%d", label, s), procs, strat.Name()),
			Experiment: harness.Experiment{
				Platform: prof,
				M:        m,
				N:        n,
				Procs:    procs,
				Overlap:  ScalingOverlap,
				Pattern:  harness.ColumnWise,
				Strategy: strat,
			},
		})
	}
	return cells
}

// DegradedScenarios are the per-server perturbation profiles the degraded
// grid sweeps, on the affinity-mode Cplant profile (12 I/O servers):
// healthy baseline, one 4×-degraded server, a hot server absorbing half the
// client affinity map, and a post-failure rebalance to half the servers.
func DegradedScenarios() []scenario.Profile {
	return []scenario.Profile{
		scenario.Healthy(),
		scenario.SlowServer(0, 4),
		scenario.HotSpot(0, 12),
		scenario.Rebalance(6),
	}
}

// DegradedGrid is the degraded-server scenario study: every scenario ×
// process count × applicable strategy on one affinity-mode platform, with
// data-less cells sized to run in seconds. Cell IDs carry a "+<scenario>"
// suffix on the size label; the per-server stats columns of the emitted
// records are where the perturbations show up (a slow server's queue
// dominates the makespan, a hot server absorbs a skewed byte share).
// Scenario cells that perturb service models or affinity are explicitly
// non-comparable to healthy Figure 8 output.
func DegradedGrid() []Cell {
	prof := platform.Cplant()
	const m, n = 256, 4096
	label := fmt.Sprintf("%dx%d", m, n)
	var cells []Cell
	for _, scen := range DegradedScenarios() {
		scen := scen
		for _, procs := range []int{4, 8} {
			for _, strat := range harness.Methods(prof) {
				cells = append(cells, Cell{
					ID: CellID(prof.Name, fmt.Sprintf("%s+%s", label, scen.Name), procs, strat.Name()),
					Experiment: harness.Experiment{
						Platform: prof,
						M:        m,
						N:        n,
						Procs:    procs,
						Overlap:  ScalingOverlap,
						Pattern:  harness.ColumnWise,
						Strategy: strat,
						Scenario: &scen,
					},
				})
			}
		}
	}
	return cells
}
