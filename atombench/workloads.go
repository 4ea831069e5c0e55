package main

import (
	"fmt"
	"strings"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/platform"
	"atomio/internal/runner"
	"atomio/internal/verify"
)

// workload is one named set of cells. Names are fixed: later issues cite
// them.
type workload struct {
	Name string
	// Why records what the workload stresses and why it exists; it is the
	// text BENCHMARK.json carries.
	Why string
	// Cells generates the workload's cells from the seed. The simulator
	// receives only these cells, never the seed.
	Cells func(seed uint64) []runner.Cell
	// Probe is the cell whose views the layer probes run on, and BigProbe
	// the many-rank cell the lock and des probes use instead (nil: Probe).
	Probe    func(seed uint64) harness.Experiment
	BigProbe func(seed uint64) harness.Experiment
	// StoresData marks the workload whose cells store, verify, fault and
	// recover real bytes; only there do the probes of those paths apply.
	StoresData bool
}

const fleetCells = 200

var workloads = []workload{
	{
		Name:  "figure8",
		Why:   "the paper's 72-cell Figure 8 grid: small P, huge views, so pfs cache and payload buffers dominate host time",
		Cells: func(uint64) []runner.Cell { return runner.Figure8Grid().Cells() },
		Probe: func(uint64) harness.Experiment {
			return columnWise(platform.IBMSP(), 4096, 32768, 16, harness.Figure8Overlap, core.Locking{})
		},
	},
	{
		Name:     "handshake",
		Why:      "IBM SP 4096x4096 P=64 coloring, ordering, twophase: P-fold redundant index/core handshake algebra; lock idle",
		Cells:    handshakeCells,
		Probe:    scalingProbe,
		BigProbe: bigProbe,
	},
	{
		Name:     "lock-scale",
		Why:      "locking only, P=64..4096 plus the shard sweep: lock tables, des parking, flattening, allocator; no handshake",
		Cells:    lockScaleCells,
		Probe:    scalingProbe,
		BigProbe: bigProbe,
	},
	{
		Name:       "verified",
		Why:        "seeded 200-cell fault fleet plus 14 stored-and-verified 32 MB cells: real bytes, WAL, replay, verify",
		Cells:      verifiedCells,
		StoresData: true,
		Probe: func(uint64) harness.Experiment {
			return columnWise(platform.IBMSP(), 4096, 8192, 16, harness.Figure8Overlap, core.Locking{})
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// selectWorkloads resolves a comma-separated -workload list ("" = all).
func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.Name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	return out, nil
}

// overlapForSeed is the overlap R the seed gives the handshake and
// lock-scale IBM SP cells: 14, 16, 18 or 20 columns, seed 1 giving
// runner.ScalingOverlap. The step is small on purpose: the seeds of one
// series of runs must produce inputs of comparable cost, or the spread
// between seeds would exceed the bounds the metrics are gated by
// (R = 8..32 moves handshake wall_s by 15 % and lock-scale virtual_mbps
// by 8 %).
func overlapForSeed(seed uint64) int { return 14 + 2*int(seed%4) }

func columnWise(prof platform.Profile, m, n, procs, overlap int, s core.Strategy) harness.Experiment {
	return harness.Experiment{
		Platform: prof, M: m, N: n, Procs: procs, Overlap: overlap,
		Pattern: harness.ColumnWise, Strategy: s,
		AtomicListIO: s.Name() == "listio",
	}
}

// withOverlap copies the cell with a new overlap; the ID records it.
func withOverlap(c runner.Cell, overlap int) runner.Cell {
	c.Experiment.Overlap = overlap
	c.ID = fmt.Sprintf("%s/R%d", c.ID, overlap)
	return c
}

func handshakeCells(seed uint64) []runner.Cell {
	pt := runner.ScalingPoints[0]
	prof := platform.IBMSP()
	var cells []runner.Cell
	for _, s := range []core.Strategy{core.RankOrder{}, core.Coloring{}, core.TwoPhase{}} {
		e := columnWise(prof, pt.M, pt.N, pt.Procs, runner.ScalingOverlap, s)
		id := runner.CellID(prof.Name, fmt.Sprintf("%dx%d", pt.M, pt.N), pt.Procs, s.Name())
		cells = append(cells, withOverlap(runner.Cell{ID: id, Experiment: e}, overlapForSeed(seed)))
	}
	return cells
}

func lockScaleCells(seed uint64) []runner.Cell {
	var cells []runner.Cell
	for _, c := range runner.ScalingGridTo(4096) {
		if c.Experiment.Strategy.Name() == "locking" {
			cells = append(cells, withOverlap(c, overlapForSeed(seed)))
		}
	}
	return append(cells, runner.ShardSweepGrid()...)
}

// verifiedCells is (a) the seeded fault fleet and (b) every platform with
// every strategy on a stored, verified 32 MB array.
func verifiedCells(seed uint64) []runner.Cell {
	cells := runner.FleetGrid(seed, fleetCells)
	for _, prof := range platform.All() {
		for _, s := range append(harness.Methods(prof), core.TwoPhase{}, core.ListIO{}) {
			e := columnWise(prof, harness.Figure8M, 8192, 16, harness.Figure8Overlap, s)
			e.StoreData, e.Verify = true, true
			cells = append(cells, runner.Cell{
				ID:         runner.CellID(prof.Name, "32 MB+verify", 16, s.Name()),
				Experiment: e,
			})
		}
	}
	return cells
}

func scalingProbe(seed uint64) harness.Experiment {
	pt := runner.ScalingPoints[0]
	return columnWise(platform.IBMSP(), pt.M, pt.N, pt.Procs, overlapForSeed(seed), core.Locking{})
}

func bigProbe(seed uint64) harness.Experiment {
	pt := runner.ExtendedScalingPoints[0]
	return columnWise(platform.IBMSP(), pt.M, pt.N, pt.Procs, overlapForSeed(seed), core.Locking{})
}

// smallest picks the warm-up cell: the healthy cell moving the fewest bytes
// through the fewest ranks (the first of several, so a workload lists its
// cheapest strategy first). Fleet cells warm up a workload only if it has
// no others: they are too small to touch the data path the timing is of.
func smallest(cells []runner.Cell) runner.Cell {
	best := cells[0]
	for _, c := range cells[1:] {
		if isFleet(best) && !isFleet(c) || isFleet(best) == isFleet(c) && cellWork(c) < cellWork(best) {
			best = c
		}
	}
	return best
}

func cellWork(c runner.Cell) int64 {
	e := c.Experiment
	return int64(e.M) * int64(e.N) * int64(e.Procs)
}

// isFleet reports whether the cell belongs to the fault fleet: those cells
// answer to runner.FleetGate, not to the per-cell volume and verdict checks.
func isFleet(c runner.Cell) bool { return c.Experiment.Faults != nil }

// checkCell applies the per-cell invariants to a finished healthy cell and
// returns "" or the violation.
func checkCell(r runner.CellResult) string {
	if r.Err != nil {
		return r.Err.Error()
	}
	if isFleet(r.Cell) {
		return ""
	}
	res := r.Result
	switch name := r.Cell.Experiment.Strategy.Name(); {
	case name == "ordering" && res.WrittenBytes != res.ArrayBytes:
		return fmt.Sprintf("ordering wrote %d bytes of a %d-byte array", res.WrittenBytes, res.ArrayBytes)
	case res.WrittenBytes < res.ArrayBytes:
		return fmt.Sprintf("wrote %d bytes, less than the %d-byte array", res.WrittenBytes, res.ArrayBytes)
	}
	if r.Cell.Experiment.Verify && res.Verdict != verify.Serializable {
		return fmt.Sprintf("verdict %q, want %q", res.Verdict, verify.Serializable)
	}
	return ""
}
