// Package cli is the shared command-line layer of the atomio binaries:
// every flag the commands have in common — result emission (-workers,
// -json, -csv, -progress), host profiles of the run (-cpuprofile,
// -memprofile), simulator model parameters (-lockshards, -servers),
// workload geometry (-m, -n, -r) and -platform — is declared
// once here, checked once, and bound to the public facade's types, so
// figure8, sweep, table1 and atomcheck cannot drift apart on names,
// defaults or error text. A group that configures cells (Model, Trace)
// hands its set flags over as facade options — Options — and leaves ranges
// and bounds to the experiment's own validation, which it reaches by
// dry-running atomio.New. The list-valued parsers (ParseProcs,
// ParseStrategies, ParsePattern) resolve names through the facade's
// registries, so unknown names are reported with the registered names.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"atomio"
)

// App wraps a flag.FlagSet named after the binary with the shared
// parse/validate/exit conventions. Construct one with New, register flag
// groups and checks, then Parse.
type App struct {
	// Name prefixes every diagnostic ("figure8: ...").
	Name string
	// Flags is the underlying flag set (ContinueOnError), for flags a
	// single binary owns.
	Flags  *flag.FlagSet
	checks []func() error
}

// New creates an App for the named binary. Diagnostics go to stderr until
// SetOutput redirects them (tests pass io.Discard or a buffer).
func New(name string) *App {
	a := &App{Name: name, Flags: flag.NewFlagSet(name, flag.ContinueOnError)}
	a.Flags.SetOutput(os.Stderr)
	return a
}

// SetOutput routes flag-package diagnostics and validation errors to w.
func (a *App) SetOutput(w io.Writer) { a.Flags.SetOutput(w) }

// Check registers a validation that Parse runs after flag parsing, in
// registration order.
func (a *App) Check(f func() error) { a.checks = append(a.checks, f) }

// Parse parses args and runs the registered validations. Flag-syntax
// errors are reported by the flag package itself; validation failures are
// printed as "<name>: <err>" to the flag set's output. Pass the result to
// ExitCode for the conventional exit status.
func (a *App) Parse(args []string) error {
	if err := a.Flags.Parse(args); err != nil {
		return err
	}
	for _, check := range a.checks {
		if err := check(); err != nil {
			fmt.Fprintf(a.Flags.Output(), "%s: %v\n", a.Name, err)
			return &validationError{err}
		}
	}
	return nil
}

// Fatal prints "<name>: <err>" to stderr and exits 1 — the shared
// diagnostic convention for failures after flag parsing.
func Fatal(name string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}

// validationError marks a post-parse validation failure so ExitCode can
// keep the binaries' historical exit statuses.
type validationError struct{ error }

func (e *validationError) Unwrap() error { return e.error }

// ExitCode maps a Parse error to the conventional exit status: 0 for
// -h/-help, 1 for validation failures, 2 for flag-syntax errors (the flag
// package's own convention).
func ExitCode(err error) int {
	var v *validationError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &v):
		return 1
	default:
		return 2
	}
}

// Output is the result-emission flag group every grid binary shares:
// -workers, -json, -csv, (opt-in) -progress, and -cpuprofile/-memprofile.
type Output struct {
	Workers    int
	JSON       string
	CSV        string
	Progress   bool
	CPUProfile string
	MemProfile string
}

// Output registers the result-emission group on the app.
func (a *App) Output(withProgress bool) *Output {
	o := &Output{}
	a.Flags.IntVar(&o.Workers, "workers", 0, "concurrent cells (0 = all CPUs)")
	a.Flags.StringVar(&o.JSON, "json", "", "also write results as JSON to this file")
	a.Flags.StringVar(&o.CSV, "csv", "", "also write results as CSV to this file")
	if withProgress {
		a.Flags.BoolVar(&o.Progress, "progress", false, "report cell completions on stderr")
	}
	a.Flags.StringVar(&o.CPUProfile, "cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	a.Flags.StringVar(&o.MemProfile, "memprofile", "", "write a host allocation profile of the run to this file")
	a.Check(o.validate)
	return o
}

func (o *Output) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", o.Workers)
	}
	return nil
}

// Run executes cells on the facade's worker pool under the group's flags,
// inside the host profiles that were asked for. They measure the simulator,
// not the simulation: host time never enters results or traces. Both files
// are created before the first cell runs, so a bad path costs no run.
func (o *Output) Run(name string, cells []atomio.Cell) ([]atomio.CellResult, error) {
	var files [2]*os.File
	for i, path := range []string{o.CPUProfile, o.MemProfile} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close() // for the error paths: success checks its own Close
		files[i] = f
	}
	cpu, mem := files[0], files[1]
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	results := atomio.RunGrid(cells, o.RunOptions(name))
	var err error
	if cpu != nil {
		pprof.StopCPUProfile()
		err = cpu.Close()
	}
	if mem != nil && err == nil {
		runtime.GC() // the allocation profile is as of the last collection
		if err = pprof.Lookup("allocs").WriteTo(mem, 0); err == nil {
			err = mem.Close()
		}
	}
	return results, err
}

// RunOptions binds the group to the facade's grid-run options, reporting
// progress on stderr under the binary's name when -progress is set.
func (o *Output) RunOptions(name string) atomio.RunOptions {
	opts := atomio.RunOptions{Workers: o.Workers}
	if o.Progress {
		opts.Progress = func(done, total int, r atomio.CellResult) {
			fmt.Fprintf(os.Stderr, "%s: [%d/%d] %s (%v)\n",
				name, done, total, r.Cell.ID, r.Wall.Round(1e6))
		}
	}
	return opts
}

// Model is the simulator model-parameter group figure8 and sweep share:
// -lockshards, -servers.
type Model struct {
	LockShards int
	Servers    int
}

// Model registers the model-parameter group on the app, with validation.
func (a *App) Model() *Model {
	m := &Model{}
	a.Flags.IntVar(&m.LockShards, "lockshards", 0,
		"lock-table shards per manager (0 = platform default; output is identical for any value)")
	a.Flags.IntVar(&m.Servers, "servers", 0,
		"simulated I/O servers (0 = platform default; a real model parameter)")
	a.Check(m.validate)
	return m
}

func (m *Model) validate() error {
	if m.LockShards < 0 {
		return fmt.Errorf("-lockshards must be non-negative, got %d", m.LockShards)
	}
	if m.Servers < 0 {
		return fmt.Errorf("-servers must be non-negative, got %d", m.Servers)
	}
	// Upper bounds are the experiment's own rules: dry-run them.
	if _, err := atomio.New(m.Options()...); err != nil {
		return fmt.Errorf("-lockshards/-servers: %w", err)
	}
	return nil
}

// Options returns the facade options of the flags that were set. 0 keeps
// each platform's default, so an unset flag contributes no option and
// per-cell values (the shard sweep's, the fleet's server count) survive.
func (m *Model) Options() []atomio.Option {
	var opts []atomio.Option
	if m.LockShards != 0 {
		opts = append(opts, atomio.LockShards(m.LockShards))
	}
	if m.Servers != 0 {
		opts = append(opts, atomio.Servers(m.Servers))
	}
	return opts
}

// Apply applies options to already-expanded cells — the grids that
// enumerate cells directly, like the scaling grid and the fleet. An
// atomio.Grid takes the same options in its Options field.
func Apply(cells []atomio.Cell, opts ...atomio.Option) error {
	for i := range cells {
		spec := atomio.Spec{Experiment: cells[i].Experiment}
		for _, opt := range opts {
			if err := opt(&spec); err != nil {
				return err
			}
		}
		cells[i].Experiment = spec.Experiment
	}
	return nil
}

// Trace is the event-tracing flag group the grid binaries share:
// -trace-out, -trace-limit and -metrics.
type Trace struct {
	Out     string
	Limit   int
	Metrics bool
}

// Trace registers the event-tracing group on the app.
func (a *App) Trace() *Trace {
	t := &Trace{}
	a.Flags.StringVar(&t.Out, "trace-out", "",
		"write per-cell event traces to this file (.json = Chrome trace-event format for Perfetto, "+
			"anything else = atomio.trace/v1 JSONL; multi-cell runs insert the cell ID before the extension)")
	a.Flags.IntVar(&t.Limit, "trace-limit", 0,
		"per-actor event cap for -trace-out (> 0 keeps the newest events, 0 = unbounded)")
	a.Flags.BoolVar(&t.Metrics, "metrics", false,
		"record the metrics registry (messages, queue depths, lock waits) into emitted records "+
			"without keeping event streams")
	a.Check(t.validate)
	return t
}

func (t *Trace) validate() error {
	if t.Limit < 0 {
		return fmt.Errorf("-trace-limit must be non-negative, got %d", t.Limit)
	}
	return nil
}

// Enabled reports whether any tracing was requested.
func (t *Trace) Enabled() bool { return t.Out != "" || t.Metrics }

// limit resolves the recorder's per-actor bound: -metrics without
// -trace-out records metrics only (no event memory at all).
func (t *Trace) limit() int {
	if t.Out == "" {
		return -1
	}
	return t.Limit
}

// Options returns the facade options the group asks for: none unless
// tracing was requested.
func (t *Trace) Options() []atomio.Option {
	if !t.Enabled() {
		return nil
	}
	return []atomio.Option{atomio.TraceEvents(true), atomio.TraceLimit(t.limit())}
}

// Write emits the traces of completed cells. A run with one traced cell
// writes exactly -trace-out; with several, each cell's file inserts its
// sanitized ID before the extension. A ".json" path selects the Chrome
// trace-event format; anything else gets atomio.trace/v1 JSONL.
func (t *Trace) Write(results []atomio.CellResult) error {
	if t.Out == "" {
		return nil
	}
	var traced []atomio.CellResult
	for _, r := range results {
		if r.Err == nil && r.Result != nil && r.Result.Events != nil {
			traced = append(traced, r)
		}
	}
	for _, r := range traced {
		path := t.Out
		if len(traced) > 1 {
			ext := filepath.Ext(path)
			path = strings.TrimSuffix(path, ext) + "-" + sanitizeID(r.Cell.ID) + ext
		}
		if err := writeTrace(path, r.Result.Events); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace writes one recorder to path in the format its extension picks.
func writeTrace(path string, rec *atomio.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	emit := atomio.WriteTraceJSONL
	if strings.HasSuffix(path, ".json") {
		emit = atomio.WriteChromeTrace
	}
	if err := emit(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitizeID maps a cell ID ("IBM SP/32 MB/P4/locking") to a file-name-safe
// token.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, id)
}

// Shape is the workload-geometry group: -m, -n, -r with per-binary
// defaults.
type Shape struct {
	M, N    int
	Overlap int
}

// Shape registers the geometry group on the app, with validation.
func (a *App) Shape(m, n, r int) *Shape {
	s := &Shape{}
	a.Flags.IntVar(&s.M, "m", m, "array rows")
	a.Flags.IntVar(&s.N, "n", n, "array columns")
	a.Flags.IntVar(&s.Overlap, "r", r, "overlapped rows/columns (even)")
	a.Check(s.validate)
	return s
}

func (s *Shape) validate() error {
	if s.M < 1 || s.N < 1 {
		return fmt.Errorf("array shape %dx%d must be positive", s.M, s.N)
	}
	if s.Overlap < 0 {
		return fmt.Errorf("-r must be non-negative, got %d", s.Overlap)
	}
	return nil
}

// Platform registers the -platform flag with a per-binary default and
// usage string.
func (a *App) Platform(def, usage string) *string {
	return a.Flags.String("platform", def, usage)
}

// ParseProcs parses a comma-separated list of process counts, rejecting
// empty, non-numeric, non-positive and out-of-bounds entries.
func ParseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty process list")
	}
	var procs []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return nil, fmt.Errorf("empty entry in process list %q", s)
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad process count %q", f)
		}
		if v < 1 {
			return nil, fmt.Errorf("process count must be positive, got %d", v)
		}
		// The upper bound is the experiment's own rule: dry-run it on a
		// shape every count partitions.
		if _, err := atomio.New(atomio.Array(1, v), atomio.Procs(v), atomio.Overlap(0)); err != nil {
			return nil, err
		}
		procs = append(procs, v)
	}
	return procs, nil
}

// ParsePattern parses a partitioning-pattern name into its canonical form,
// accepting the short flag forms (column, row, block) and the full names.
// Unlike atomio.NormalizePattern it rejects the empty string: a flag value
// must name a pattern explicitly.
func ParsePattern(s string) (string, error) {
	if strings.TrimSpace(s) == "" {
		return "", fmt.Errorf("empty pattern (want column, row or block)")
	}
	return atomio.NormalizePattern(s)
}

// ParseStrategies parses a comma-separated strategy list into canonical
// registered names, rejecting empty entries; unknown names are reported
// with the registered names.
func ParseStrategies(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty strategy list")
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return nil, fmt.Errorf("empty entry in strategy list %q", s)
		}
		strat, err := atomio.StrategyByName(f)
		if err != nil {
			return nil, err
		}
		out = append(out, strat.Name())
	}
	return out, nil
}
