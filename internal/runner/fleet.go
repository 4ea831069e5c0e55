package runner

import (
	"fmt"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/platform"
	"atomio/internal/sim/fault"
	"atomio/internal/verify"
)

// This file is the failure-injection fleet: a seeded grid of randomized
// (platform × strategy × pattern × fault-script × recovery) cells whose
// verdicts make atomicity-under-failure a swept, machine-checked property.
// Cell 0 is a pinned negative control that is torn by construction; the
// remaining cells are drawn from the seed alone, so a fleet is reproduced
// exactly by (seed, cells) and a failing cell shrinks to a minimal repro
// with Shrink.

// fleetProcs / fleet shapes are deliberately small: a fleet buys coverage
// with cell count, not cell size, and CI sweeps hundreds of cells.
var (
	fleetProcs    = []int{4, 8}
	fleetRowsPer  = []int{8, 16} // M = procs * rowsPer keeps row-wise pieces taller than the overlap
	fleetNs       = []int{512, 1024}
	fleetOverlaps = []int{4, 8}
	fleetPatterns = []harness.Pattern{harness.ColumnWise, harness.RowWise}
)

// fleetServers pins every fleet cell to two I/O servers so generated crash
// windows always target a live server and a single outage damages a large
// stripe share.
const fleetServers = 2

// fleetStrategies are the strategies a fleet samples on a platform: the
// paper's per-platform methods plus two-phase, the strategy whose recovery
// story (partial commits healed by intent replay) the fleet exists to
// sweep.
func fleetStrategies(prof platform.Profile) []core.Strategy {
	return append(harness.Methods(prof), core.TwoPhase{})
}

// fleetID names a fleet cell from its parameters alone, so IDs are stable
// across runs and engines: the usual platform/size/P/strategy layout with
// the fault script, pattern and recovery riding on the size label.
func fleetID(e harness.Experiment) string {
	label := fmt.Sprintf("%dx%d", e.M, e.N)
	if e.Pattern == harness.RowWise {
		label += "+row"
	}
	if e.Faults != nil {
		label += "+" + e.Faults.Name
	}
	if e.Recovery {
		label += "+rec"
	}
	return CellID(e.Platform.Name, label, e.Procs, e.Strategy.Name())
}

// NegativeControlCell is fleet cell 0, pinned on every seed: a server down
// from t=0 under the locking strategy with no recovery. Half the stripes
// are lost, so the verdict is torn by construction — the cell that proves
// the fleet's verifier can fail.
func NegativeControlCell() Cell {
	script := fault.ServerOutage()
	e := harness.Experiment{
		Platform: platform.Origin2000(),
		M:        32,
		N:        512,
		Procs:    4,
		Overlap:  4,
		Pattern:  harness.ColumnWise,
		Strategy: core.Locking{},
		Servers:  fleetServers,
		Verify:   true,
		Faults:   &script,
	}
	return Cell{ID: fleetID(e), Experiment: e}
}

// FleetGrid generates the seeded fleet: cell 0 is the pinned negative
// control, and every further cell is drawn from the seed's PRNG stream —
// platform, strategy, pattern, shape, recovery, and a generated fault
// script (always with a positive lease, so lock faults heal by revocation
// instead of wedging the run). The same (seed, cells) pair generates the
// identical grid forever.
func FleetGrid(seed uint64, cells int) []Cell {
	if cells < 1 {
		return nil
	}
	out := make([]Cell, 0, cells)
	out = append(out, NegativeControlCell())
	rng := fault.NewRand(seed)
	profiles := platform.All()
	for len(out) < cells {
		prof := profiles[rng.Intn(len(profiles))]
		strategies := fleetStrategies(prof)
		strat := strategies[rng.Intn(len(strategies))]
		procs := fleetProcs[rng.Intn(len(fleetProcs))]
		name := strat.Name()
		script := fault.Generate(rng.Uint64(), fault.GenParams{
			Servers: fleetServers,
			Ranks:   procs,
			// Lock faults only have observable outcomes where locks are
			// taken; writer crashes are implemented by the strategies
			// that commit data directly from the faulted rank.
			LockFaults:  prof.SupportsLocking() && name == "locking",
			WriterCrash: name == "locking" || name == "twophase",
		})
		e := harness.Experiment{
			Platform: prof,
			M:        procs * fleetRowsPer[rng.Intn(len(fleetRowsPer))],
			N:        fleetNs[rng.Intn(len(fleetNs))],
			Procs:    procs,
			Overlap:  fleetOverlaps[rng.Intn(len(fleetOverlaps))],
			Pattern:  fleetPatterns[rng.Intn(len(fleetPatterns))],
			Strategy: strat,
			Servers:  fleetServers,
			Verify:   true,
			Faults:   &script,
			Recovery: rng.Intn(2) == 1,
		}
		out = append(out, Cell{ID: fleetID(e), Experiment: e})
	}
	return out
}

// FleetGate enforces the fleet's acceptance property over a run's results:
//
//   - every cell must complete and carry a verdict;
//   - every recovery-enabled cell must end serializable or
//     recovered-serializable — no fault class may tear a file past the
//     write-ahead log;
//   - at least one cell must be torn, proving the negative control (and
//     with it the verifier's ability to reject) is present.
//
// Recovery-disabled faulted cells may legitimately be torn; they are the
// fleet's evidence that the faults bite.
func FleetGate(results []CellResult) error {
	torn := 0
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("runner: fleet gate: cell %s failed: %w", r.Cell.ID, r.Err)
		}
		v := r.Result.Verdict
		if v == "" {
			return fmt.Errorf("runner: fleet gate: cell %s has no verdict", r.Cell.ID)
		}
		if r.Cell.Experiment.Recovery && v == verify.Torn {
			return fmt.Errorf("runner: fleet gate: cell %s is torn despite recovery", r.Cell.ID)
		}
		if v == verify.Torn {
			torn++
		}
	}
	if torn == 0 {
		return fmt.Errorf("runner: fleet gate: no torn cell — the negative control did not bite")
	}
	return nil
}

// Shrink reduces a failing fleet cell to a smaller cell that still
// satisfies bad, probing one reduction at a time: drop a fault event, then
// halve processes, rows, columns or overlap. A probe that fails differently
// (or not at all) rejects its reduction. budget bounds the number of probe
// runs; the final cell re-runs under the caller, not here. The returned
// cell's ID reflects the reduced parameters.
func Shrink(cell Cell, bad func(CellResult) bool, budget int) Cell {
	probe := func(c Cell) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return bad(runCell(c))
	}
	for changed := true; changed && budget > 0; {
		changed = false
		if s := cell.Experiment.Faults; s != nil && len(s.Events) > 0 {
			for i := range s.Events {
				reduced := *s
				reduced.Events = append(append([]fault.Event(nil), s.Events[:i]...), s.Events[i+1:]...)
				cand := cell
				cand.Experiment.Faults = &reduced
				if probe(cand) {
					cell = cand
					changed = true
					break
				}
			}
			if changed {
				continue
			}
		}
		for _, reduce := range []func(*harness.Experiment) bool{
			func(e *harness.Experiment) bool {
				if e.Procs <= 2 {
					return false
				}
				e.Procs /= 2
				return true
			},
			func(e *harness.Experiment) bool {
				// Keep row-wise pieces at least one overlap tall.
				if e.M%2 != 0 || e.M/2%e.Procs != 0 || e.M/2/e.Procs < e.Overlap {
					return false
				}
				e.M /= 2
				return true
			},
			func(e *harness.Experiment) bool {
				if e.N%2 != 0 || e.N/2%e.Procs != 0 || e.N/2/e.Procs < e.Overlap {
					return false
				}
				e.N /= 2
				return true
			},
			func(e *harness.Experiment) bool {
				if e.Overlap <= 2 {
					return false
				}
				e.Overlap /= 2
				return true
			},
		} {
			cand := cell
			if !reduce(&cand.Experiment) {
				continue
			}
			if probe(cand) {
				cell = cand
				changed = true
				break
			}
		}
	}
	cell.ID = fleetID(cell.Experiment)
	return cell
}
