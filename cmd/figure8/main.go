// Command figure8 regenerates the paper's Figure 8: aggregate write
// bandwidth of the column-wise concurrent overlapping write for 4, 8 and 16
// processes, per atomicity strategy, on the three simulated platforms at
// the three array sizes (32 MB, 128 MB, 1 GB).
//
// Usage:
//
//	figure8 [-platform name] [-size label] [-v]
//	        [-workers N] [-progress] [-json file] [-csv file]
//	        [-cpuprofile file] [-memprofile file]
//	        [-scale] [-maxp P] [-servers N] [-degraded]
//	        [-fleet] [-seed S] [-cells N]
//	        [-trace-out file] [-trace-limit N] [-metrics]
//
// Without flags all nine panels run data-less (time accounting only), which
// keeps the 1 GB panels memory-flat. Cells run concurrently on a worker
// pool; every cell is an independent virtual-time simulation, so -workers
// changes wall-clock time only, never the reported bandwidths.
//
// With -scale the command runs the large-P scaling grid instead (process
// counts up to 1024 with non-contiguous interleaved views, see
// atomio.Scaling) and prints one row per cell; -json emits the same
// atomio.bench/v1 records as the Figure 8 grid. -maxp raises (or lowers)
// the grid's process-count ceiling: past 1024 the grid continues into the
// extended points (2048–16384 ranks, see atomio.ScalingTo).
//
// -servers N overrides every cell's simulated I/O-server count (a real
// model parameter: reported numbers change with it). -degraded runs the
// degraded-server scenario grid instead (atomio.Degraded): healthy
// baseline, one slow server, a hot server absorbing skewed affinity, and a
// server-count rebalance, printing each cell's bandwidth next to its
// hottest server's queue occupancy and byte share; the emitted records
// carry per-server stats columns.
//
// -fleet runs the seeded failure-injection fleet instead (atomio.Fleet):
// -cells randomized (platform × strategy × pattern × fault-script ×
// recovery) cells drawn from -seed, with cell 0 a pinned negative control
// that is torn by construction. Every cell verifies its file content and
// prints its atomicity verdict; the run then applies the fleet gate (no
// recovery-enabled cell torn, at least one torn cell overall). On a gate
// failure the offending cell is shrunk to a minimal reproducer and printed
// before exiting non-zero. Fault decisions are pure functions of virtual
// time, so the whole report — verdicts included — is byte-identical across
// runs for a fixed (seed, cells) pair.
//
// -trace-out records every cell's structured virtual-time event stream and
// writes one trace file per cell: a ".json" path gets the Chrome
// trace-event format (open it at ui.perfetto.dev), any other extension gets
// atomio.trace/v1 JSONL (the format cmd/atomtrace consumes). The stream is
// byte-identical across worker counts.
// -trace-limit bounds per-actor event memory for large-P cells. -metrics
// alone records the metrics registry — message counts, queue depths, lock
// waits — into the emitted records without keeping event streams.
//
// Flags are declared through the shared internal/cli layer; grids are
// resolved and executed by the public atomio facade.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"atomio"
	"atomio/internal/cli"
	"atomio/internal/harness"
)

// config is the parsed command line.
type config struct {
	platform string
	size     string
	verbose  bool
	scale    bool
	maxp     int
	degraded bool
	fleet    bool
	seed     uint64
	cells    int
	out      *cli.Output
	model    *cli.Model
	trace    *cli.Trace
}

// parseFlags parses and validates the command line, printing diagnostics
// to stderr.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	app := cli.New("figure8")
	app.SetOutput(stderr)
	cfg := &config{}
	platformFlag := app.Platform("", "run only this platform (Cplant, Origin2000, IBM SP)")
	sizeFlag := app.Flags.String("size", "", "run only this array size (32 MB, 128 MB, 1 GB)")
	app.Flags.BoolVar(&cfg.verbose, "v", false, "also print virtual makespans and written volumes")
	app.Flags.BoolVar(&cfg.scale, "scale", false, "run the large-P scaling grid instead of Figure 8")
	app.Flags.IntVar(&cfg.maxp, "maxp", 1024,
		"largest process count of the -scale grid (past 1024: the extended points, up to 16384)")
	app.Flags.BoolVar(&cfg.degraded, "degraded", false, "run the degraded-server scenario grid instead of Figure 8")
	app.Flags.BoolVar(&cfg.fleet, "fleet", false, "run the seeded failure-injection fleet instead of Figure 8")
	app.Flags.Uint64Var(&cfg.seed, "seed", 1, "fleet PRNG seed; (seed, cells) reproduces the fleet exactly")
	app.Flags.IntVar(&cfg.cells, "cells", 200, "fleet cell count, including the pinned negative control")
	cfg.out = app.Output(true)
	cfg.model = app.Model()
	cfg.trace = app.Trace()
	app.Check(func() error {
		exclusive := 0
		for _, f := range []bool{cfg.scale, cfg.degraded, cfg.fleet} {
			if f {
				exclusive++
			}
		}
		if exclusive > 1 {
			return errors.New("-scale, -degraded and -fleet are mutually exclusive")
		}
		if cfg.degraded && cfg.model.Servers != 0 {
			return errors.New("-degraded fixes its own scenarios; -servers would be ignored")
		}
		if cfg.fleet && cfg.model.Servers != 0 {
			return errors.New("-fleet fixes two I/O servers per cell; -servers would change the fault surface")
		}
		if (cfg.seed != 1 || cfg.cells != 200) && !cfg.fleet {
			return errors.New("-seed and -cells are only meaningful with -fleet")
		}
		if cfg.cells < 1 {
			return fmt.Errorf("-cells must be at least 1 (the negative control), got %d", cfg.cells)
		}
		if cfg.cells > maxFleetCells {
			return fmt.Errorf("-cells must be at most %d, got %d", maxFleetCells, cfg.cells)
		}
		if cfg.scale || cfg.degraded || cfg.fleet {
			// These grids fix their own platform, shapes and data mode;
			// reject flags that would otherwise be silently ignored.
			if *platformFlag != "" || *sizeFlag != "" || cfg.verbose {
				return errors.New("-scale/-degraded/-fleet are incompatible with -platform, -size and -v")
			}
		}
		if cfg.maxp != 1024 && !cfg.scale {
			return errors.New("-maxp is only meaningful with -scale")
		}
		if cfg.maxp < 64 {
			return fmt.Errorf("-maxp must be at least 64 (the smallest scaling point), got %d", cfg.maxp)
		}
		if cfg.maxp > 16384 {
			return fmt.Errorf("-maxp must be at most 16384 (the largest scaling point), got %d", cfg.maxp)
		}
		return nil
	})
	if err := app.Parse(args); err != nil {
		return nil, err
	}
	cfg.platform = *platformFlag
	cfg.size = *sizeFlag
	return cfg, nil
}

// maxFleetCells bounds -cells: the fleet is generated in memory, fault
// script and all, before the first cell runs.
const maxFleetCells = 1 << 16

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(cli.ExitCode(err))
	}
	grid, cells, err := expand(cfg)
	if err != nil {
		fatal(err)
	}
	switch {
	case cfg.degraded:
		runDegraded(cells, cfg)
	case cfg.fleet:
		runFleet(cells, cfg)
	case cfg.scale:
		runScaling(cells, cfg)
	default:
		runFigure8(grid, cells, cfg)
	}
}

// expand turns the parsed command line into the cells it runs — the
// selected mode's cells, or the (possibly narrowed) Figure 8 grid — with the
// model and tracing flags that were set applied to every one. The modes'
// flag checks have already rejected the flags a mode would ignore.
func expand(cfg *config) (grid atomio.Grid, cells []atomio.Cell, err error) {
	switch {
	case cfg.degraded:
		cells = atomio.Degraded()
	case cfg.fleet:
		cells = atomio.Fleet(cfg.seed, cfg.cells)
	case cfg.scale:
		cells = atomio.ScalingTo(cfg.maxp)
	default:
		grid = atomio.Figure8()
		if cfg.platform != "" {
			if grid, err = grid.WithPlatform(cfg.platform); err != nil {
				return grid, nil, err
			}
		}
		if cfg.size != "" {
			if grid, err = grid.WithSize(cfg.size); err != nil {
				return grid, nil, err
			}
		}
		if cells, err = grid.Cells(); err != nil {
			return grid, nil, err
		}
	}
	return grid, cells, cli.Apply(cells, append(cfg.model.Options(), cfg.trace.Options()...)...)
}

// runFigure8 executes the Figure 8 grid's cells and renders the nine
// panels.
func runFigure8(grid atomio.Grid, cells []atomio.Cell, cfg *config) {
	results := runCells(cells, cfg)

	for _, size := range grid.Sizes {
		for _, name := range grid.Platforms {
			prof, err := atomio.PlatformByName(name)
			if err != nil {
				fatal(err)
			}
			panel := harness.Panel{Platform: prof, N: size.N, Label: size.Label}
			series := panelSeries(panel, results)
			fmt.Print(harness.RenderPanel(panel, series))
			if cfg.verbose {
				for _, s := range series {
					fmt.Printf("  # %-10s", s.Method)
					for _, p := range harness.Figure8Procs {
						fmt.Printf("  P%-2d %8.1fms %5dMB", p, s.MakespanMS[p], s.Written[p]>>20)
					}
					fmt.Println()
				}
			}
			fmt.Println()
		}
	}
}

// runCells executes cells with the shared progress/emit/error handling the
// grids use, exiting non-zero on any cell failure.
func runCells(cells []atomio.Cell, cfg *config) []atomio.CellResult {
	results, err := cfg.out.Run("figure8", cells)
	if err != nil {
		fatal(err)
	}
	if err := atomio.FirstErr(results); err != nil {
		fatal(err)
	}
	if err := atomio.EmitFiles(cfg.out.JSON, cfg.out.CSV, results); err != nil {
		fatal(err)
	}
	if err := cfg.trace.Write(results); err != nil {
		fatal(err)
	}
	return results
}

// runScaling executes the large-P scaling grid and prints one row per cell.
func runScaling(cells []atomio.Cell, cfg *config) {
	results := runCells(cells, cfg)
	fmt.Printf("%-44s %10s %12s %12s\n", "cell", "P", "vMB/s", "vmakespan")
	for _, r := range results {
		res := r.Result
		fmt.Printf("%-44s %10d %12.2f %12s\n",
			r.Cell.ID, r.Cell.Experiment.Procs, res.BandwidthMBs, res.Makespan)
	}
}

// runDegraded executes the degraded-server scenario grid and prints one row
// per cell with a per-server summary: the hottest server's queue occupancy
// (busy time over the cell's makespan) and its share of the bytes moved —
// the columns where a slow or hot server shows up.
func runDegraded(cells []atomio.Cell, cfg *config) {
	results := runCells(cells, cfg)
	fmt.Printf("%-44s %8s %12s %12s %10s %10s\n",
		"cell", "servers", "vMB/s", "vmakespan", "hot busy", "hot bytes")
	for _, r := range results {
		res := r.Result
		hot := atomio.SummarizeServerStats(res.ServerStats, res.Makespan)
		fmt.Printf("%-44s %8d %12.2f %12s %9.1f%% %9.1f%%\n",
			r.Cell.ID, len(res.ServerStats), res.BandwidthMBs, res.Makespan,
			hot.MaxOccupancy*100, hot.MaxByteShare*100)
	}
}

// shrinkBudget bounds the probe runs a gate-failure reproducer may spend;
// fleet cells are small, so forty re-runs stay well under a minute.
const shrinkBudget = 40

// runFleet executes the seeded failure-injection fleet, prints one verdict
// row per cell, and applies the fleet gate. The report carries no wall
// times, so a fixed (seed, cells) pair prints byte-identically across runs
// — diffing two fleet runs is a live determinism check. On gate failure the
// offending cell is shrunk to a minimal reproducer and the command exits
// non-zero.
func runFleet(cells []atomio.Cell, cfg *config) {
	results, err := cfg.out.Run("figure8", cells)
	if err != nil {
		fatal(err)
	}
	if err := atomio.EmitFiles(cfg.out.JSON, cfg.out.CSV, results); err != nil {
		fatal(err)
	}
	if err := cfg.trace.Write(results); err != nil {
		fatal(err)
	}

	fmt.Printf("fleet: seed %d, %d cells\n\n", cfg.seed, len(results))
	fmt.Printf("%-64s %s\n", "cell", "verdict")
	counts := make(map[atomio.Verdict]int)
	failed := 0
	for _, r := range results {
		verdict := "ERROR"
		if r.Err != nil {
			failed++
		} else {
			verdict = string(r.Result.Verdict)
			counts[r.Result.Verdict]++
		}
		fmt.Printf("%-64s %s\n", r.Cell.ID, verdict)
	}
	fmt.Printf("\nverdicts: %d %s, %d %s, %d %s",
		counts[atomio.Serializable], atomio.Serializable,
		counts[atomio.RecoveredSerializable], atomio.RecoveredSerializable,
		counts[atomio.Torn], atomio.Torn)
	if failed > 0 {
		fmt.Printf(", %d failed", failed)
	}
	fmt.Println()

	if err := atomio.FleetGate(results); err != nil {
		fmt.Printf("fleet gate: FAIL: %v\n", err)
		reportRepro(results)
		os.Exit(1)
	}
	fmt.Println("fleet gate: PASS")
}

// reportRepro shrinks the first gate-offending cell — an errored cell or a
// torn cell that had recovery enabled — to a minimal reproducer and prints
// its parameters and fault script. A fleet-wide offense (no torn cell at
// all) has no single cell to shrink.
func reportRepro(results []atomio.CellResult) {
	for _, r := range results {
		var bad func(atomio.CellResult) bool
		switch {
		case r.Err != nil:
			bad = func(p atomio.CellResult) bool { return p.Err != nil }
		case r.Cell.Experiment.Recovery && r.Result.Verdict == atomio.Torn:
			bad = func(p atomio.CellResult) bool {
				return p.Err == nil && p.Result.Verdict == atomio.Torn
			}
		default:
			continue
		}
		shrunk := atomio.ShrinkCell(r.Cell, bad, shrinkBudget)
		e := shrunk.Experiment
		fmt.Printf("minimal repro: %s\n", shrunk.ID)
		fmt.Printf("  array %dx%d, P=%d, overlap %d, %s, strategy %s, recovery %v\n",
			e.M, e.N, e.Procs, e.Overlap, e.Pattern, e.Strategy.Name(), e.Recovery)
		fmt.Printf("  fault script %q (lease %v):\n", e.Faults.Name, e.Faults.Lease)
		for _, ev := range e.Faults.Events {
			fmt.Printf("    %s\n", ev)
		}
		return
	}
}

// panelSeries assembles a panel's curves from the grid results.
func panelSeries(panel harness.Panel, results []atomio.CellResult) []harness.Series {
	byID := make(map[string]*atomio.Result, len(results))
	for _, r := range results {
		byID[r.Cell.ID] = r.Result
	}
	methods, err := atomio.Methods(panel.Platform.Name)
	if err != nil {
		fatal(err)
	}
	var out []harness.Series
	for _, method := range methods {
		s := harness.Series{
			Method:     method,
			ByProcs:    make(map[int]float64),
			Written:    make(map[int]int64),
			MakespanMS: make(map[int]float64),
		}
		for _, procs := range harness.Figure8Procs {
			id := atomio.CellID(panel.Platform.Name, panel.Label, procs, method)
			res, ok := byID[id]
			if !ok {
				continue
			}
			s.ByProcs[procs] = res.BandwidthMBs
			s.Written[procs] = res.WrittenBytes
			s.MakespanMS[procs] = res.Makespan.Seconds() * 1e3
		}
		out = append(out, s)
	}
	return out
}

func fatal(err error) { cli.Fatal("figure8", err) }
