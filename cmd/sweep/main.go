// Command sweep runs custom parameter sweeps of the concurrent overlapping
// write experiment beyond the paper's Figure 8 grid: any array shape,
// process counts, overlap widths, partitioning patterns and strategies.
//
// Example: bandwidth versus overlap width for the handshaking strategies on
// the IBM SP profile:
//
//	sweep -platform "IBM SP" -m 1024 -n 16384 -p 4,8,16 -r 128 -strategies coloring,ordering
//
// Cells run concurrently on a worker pool (-workers); results can also be
// emitted as JSON or CSV (-json, -csv), per-cell event traces as JSONL or
// Chrome trace-event JSON (-trace-out), and the metrics registry into the
// emitted records (-metrics). Malformed flag values exit non-zero with a
// diagnostic. Flags are declared through the shared internal/cli layer and
// the grid is resolved and executed by the public atomio facade.
package main

import (
	"fmt"
	"io"
	"os"

	"atomio"
	"atomio/internal/cli"
)

// config is the parsed command line.
type config struct {
	platform   string
	shape      *cli.Shape
	procs      []int
	pattern    string
	strategies []string
	trace      bool
	out        *cli.Output
	model      *cli.Model
	events     *cli.Trace
}

// parseFlags parses and validates the command line, printing diagnostics
// to stderr.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	app := cli.New("sweep")
	app.SetOutput(stderr)
	cfg := &config{}
	platformFlag := app.Platform("Origin2000", "platform profile")
	cfg.shape = app.Shape(1024, 8192, 16)
	procsFlag := app.Flags.String("p", "4,8,16", "comma-separated process counts")
	patternFlag := app.Flags.String("pattern", "column", "partitioning: column, row, block")
	strategiesFlag := app.Flags.String("strategies", "locking,coloring,ordering",
		"comma-separated strategies (locking, coloring, ordering, twophase, listio)")
	app.Flags.BoolVar(&cfg.trace, "trace", false, "print per-phase virtual-time breakdowns")
	cfg.out = app.Output(false)
	cfg.model = app.Model()
	cfg.events = app.Trace()
	app.Check(func() (err error) { cfg.procs, err = cli.ParseProcs(*procsFlag); return })
	app.Check(func() (err error) { cfg.pattern, err = cli.ParsePattern(*patternFlag); return })
	app.Check(func() (err error) { cfg.strategies, err = cli.ParseStrategies(*strategiesFlag); return })
	if err := app.Parse(args); err != nil {
		return nil, err
	}
	cfg.platform = *platformFlag
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(cli.ExitCode(err))
	}
	prof, strategies, cells, err := expand(cfg, os.Stderr)
	if err != nil {
		fatal(err)
	}
	results, err := cfg.out.Run("sweep", cells)
	if err != nil {
		fatal(err)
	}
	if err := atomio.EmitFiles(cfg.out.JSON, cfg.out.CSV, results); err != nil {
		fatal(err)
	}
	if err := cfg.events.Write(results); err != nil {
		fatal(err)
	}

	fmt.Printf("%s  %s %dx%d  R=%d\n", prof.Name, cfg.pattern, cfg.shape.M, cfg.shape.N, cfg.shape.Overlap)
	fmt.Printf("%-6s", "P")
	for _, name := range strategies {
		fmt.Printf("%16s", name)
	}
	fmt.Println()
	// Cells enumerate process counts outermost, strategies innermost — the
	// table's row-major order.
	i := 0
	failed := false
	for range cfg.procs {
		fmt.Printf("%-6d", cells[i].Experiment.Procs)
		for range strategies {
			r := results[i]
			if r.Err != nil {
				failed = true
				fmt.Printf("%16s", "error")
				fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", r.Cell.ID, r.Err)
			} else {
				fmt.Printf("%11.2f MB/s", r.Result.BandwidthMBs)
			}
			i++
		}
		fmt.Println()
	}
	if cfg.trace {
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			fmt.Printf("\nP=%d %s phase breakdown:\n%s",
				r.Cell.Experiment.Procs, r.Cell.Experiment.Strategy.Name(), r.Result.PhaseBreakdown())
		}
	}
	if failed {
		os.Exit(1)
	}
}

// expand turns the parsed command line into the cells it runs: one per
// process count and runnable strategy (locking is skipped, with a warning,
// on a platform without it), every flag applied as a facade option.
func expand(cfg *config, stderr io.Writer) (prof atomio.Profile, strategies []string, cells []atomio.Cell, err error) {
	if prof, err = atomio.PlatformByName(cfg.platform); err != nil {
		return
	}
	for _, name := range cfg.strategies {
		if name == "locking" && !prof.SupportsLocking() {
			fmt.Fprintf(stderr, "sweep: skipping locking (%s has no byte-range locking)\n", prof.Name)
			continue
		}
		strategies = append(strategies, name)
	}
	if len(strategies) == 0 {
		err = fmt.Errorf("no runnable strategies on %s", prof.Name)
		return
	}
	opts := []atomio.Option{
		atomio.Overlap(cfg.shape.Overlap), atomio.Pattern(cfg.pattern),
	}
	if cfg.trace {
		// The breakdown is read from the phase counters: record metrics
		// only, unless -trace-out (applied after) keeps the events too.
		opts = append(opts, atomio.TraceEvents(true), atomio.TraceLimit(-1))
	}
	cells, err = atomio.Grid{
		Platforms:  []string{prof.Name},
		Sizes:      []atomio.Size{{M: cfg.shape.M, N: cfg.shape.N}},
		Procs:      cfg.procs,
		Strategies: strategies,
		Options:    append(append(opts, cfg.model.Options()...), cfg.events.Options()...),
	}.Cells()
	return
}

func fatal(err error) { cli.Fatal("sweep", err) }
