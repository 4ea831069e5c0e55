// Package atomio is the public face of the repository: a reproduction of
// "Scalable Implementations of MPI Atomicity for Concurrent Overlapping
// I/O" (Liao et al., ICPP 2003) grown into a simulated parallel-I/O
// laboratory.
//
// The package wraps the internal layers — platform profiles, the
// virtual-time MPI and parallel-file-system simulators, the byte-range lock
// service, the atomicity strategies and the grid runner — behind one
// options-based API. Everything is named: platforms, atomicity strategies,
// partitioning patterns and degraded-server scenarios are resolved through
// registries, so a consumer composes an experiment from strings instead of
// hand-wiring internal structs:
//
//	res, err := atomio.Run(
//		atomio.Platform("Cplant"),
//		atomio.Procs(8),
//		atomio.Strategy("ordering"),
//		atomio.Scenario("slow0x4"),
//	)
//
// New applies an option list to the defaults and validates the result into
// a Spec; Spec.Run executes it. A Spec is the internal layers' own
// description of a cell (harness.Experiment) with the names resolved, so an
// Option edits the very struct that runs, a Grid is a set of named axes
// plus the same Options, and a new per-cell setting is one field there plus
// one Option here. RunGrid executes many cells on a worker pool; Figure8,
// Scaling and Degraded return the paper's evaluation grids;
// Fleet returns the seeded failure-injection fleet. New subsystems plug in
// by registering a name (RegisterStrategy, RegisterPlatform,
// RegisterScenario, RegisterFault) rather than growing another struct
// field.
package atomio

import (
	"fmt"
	"io"
	"strings"
	"time"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/obs"
	"atomio/internal/pfs"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
	"atomio/internal/verify"
)

// Re-exported result and record types: the facade returns the same values
// the internal layers produce, so nothing is copied or lossy.
type (
	// Result is the outcome of one experiment (virtual makespan,
	// bandwidth, written volume, atomicity report, per-server stats).
	Result = harness.Result
	// Report is the MPI-atomicity check over the resulting file content.
	Report = verify.Report
	// Profile is one simulated platform: the paper's Table 1 facts plus
	// simulator parameters.
	Profile = platform.Profile
	// VTime is simulated virtual time in nanoseconds.
	VTime = sim.VTime
	// ServerStats is one simulated I/O server's traffic and queue state.
	ServerStats = pfs.ServerStats
	// ServerStatsSummary condenses per-server stats into hot-server
	// indicators.
	ServerStatsSummary = harness.ServerStatsSummary
	// FaultScript is a named, deterministic failure-injection script:
	// seeded events over virtual time (server crash windows, lock-message
	// faults, writer crashes) plus the lock-lease duration.
	FaultScript = fault.Script
	// Verdict classifies a verified run's atomicity outcome: serializable,
	// torn, or recovered-serializable.
	Verdict = verify.Verdict
	// TraceEvent is one structured virtual-time event of a traced run,
	// totally ordered by (T, Actor, Seq) and byte-identical across worker
	// counts (see internal/obs).
	TraceEvent = obs.Event
	// TraceRecorder collects a traced run's event streams and metrics;
	// Result.Events holds one when tracing was requested.
	TraceRecorder = obs.Recorder
	// TraceMetrics is the merged metrics snapshot of a traced run
	// (counters, gauges and virtual-time histograms).
	TraceMetrics = obs.Metrics
)

// The verdict values (see verify.Verdict for their exact meaning).
const (
	Serializable          = verify.Serializable
	Torn                  = verify.Torn
	RecoveredSerializable = verify.RecoveredSerializable
)

// Spec is a fully described experiment. It wraps the one struct every
// layer describes a cell with, so its fields are the resolved values —
// Platform a Profile, Strategy a registered strategy instance — and
// Result.Experiment and Cell.Experiment are the same type. Construct specs
// through New so defaults and validation apply; a field assigned afterwards
// is checked again by Run.
type Spec struct {
	harness.Experiment
}

// Option edits a Spec under construction. Name-taking options resolve
// through the registries when applied, so an unknown name fails New with
// the registered names; ranges and bounds are checked once, by New, after
// every option has been applied.
type Option func(*Spec) error

// Platform selects the platform profile by registered name.
func Platform(name string) Option {
	return func(s *Spec) (err error) { s.Platform, err = PlatformByName(name); return }
}

// Array sets the global array dimensions in bytes.
func Array(m, n int) Option {
	return func(s *Spec) error { s.M, s.N = m, n; return nil }
}

// Procs sets the number of simulated MPI processes.
func Procs(p int) Option {
	return func(s *Spec) error { s.Procs = p; return nil }
}

// Overlap sets the number of overlapped rows/columns R.
func Overlap(r int) Option {
	return func(s *Spec) error { s.Overlap = r; return nil }
}

// Pattern selects the partitioning pattern by name ("column", "row",
// "block", or the long forms NormalizePattern accepts).
func Pattern(name string) Option {
	return func(s *Spec) (err error) { s.Pattern, err = patternOf(name); return }
}

// Strategy selects the atomicity strategy by registered name.
func Strategy(name string) Option {
	return func(s *Spec) (err error) { s.Strategy, err = StrategyByName(name); return }
}

// Scenario selects a degraded-server scenario by registered name; the
// empty string keeps the healthy configuration.
func Scenario(name string) Option {
	return func(s *Spec) error {
		s.Scenario = nil
		if name == "" {
			return nil
		}
		scen, err := ScenarioByName(name)
		if err != nil {
			return err
		}
		s.Scenario = &scen
		return nil
	}
}

// Fault selects a failure-injection script by registered name; the empty
// string keeps the fault-free run. Fault decisions are pure functions of
// virtual time, so a faulted run is as reproducible as a healthy one.
func Fault(name string) Option {
	return func(s *Spec) error {
		s.Faults = nil
		if name == "" {
			return nil
		}
		script, err := FaultByName(name)
		if err != nil {
			return err
		}
		s.Faults = &script
		return nil
	}
}

// Recovery enables write-ahead intent logging during the run and replay
// of fault-damaged extents after it; verified runs that healed report the
// recovered-serializable verdict.
func Recovery(on bool) Option {
	return func(s *Spec) error { s.Recovery = on; return nil }
}

// Servers overrides the simulated I/O-server count (0 keeps the platform
// default). Server count is a real model parameter: reported numbers
// change with it.
func Servers(n int) Option {
	return func(s *Spec) error { s.Servers = n; return nil }
}

// Verify keeps who wrote each byte of the file and checks MPI atomicity on
// it. No cell carries a payload either way, so even the 1 GB arrays stay
// memory-flat.
func Verify(on bool) Option {
	return func(s *Spec) error { s.Verify = on; return nil }
}

// TraceEvents records the structured virtual-time event stream and metrics
// registry of the run, per-phase virtual time included (see
// Result.PhaseBreakdown). The stream is byte-identical across worker
// counts; export it with WriteTraceJSONL or WriteChromeTrace.
func TraceEvents(on bool) Option {
	return func(s *Spec) error { s.TraceEvents = on; return nil }
}

// TraceLimit bounds per-actor event memory for traced runs: n > 0 keeps
// only the newest n events per actor (ring buffer), 0 is unbounded, n < 0
// records metrics only. Large-P cells use a ring.
func TraceLimit(n int) Option {
	return func(s *Spec) error { s.EventLimit = n; return nil }
}

// Checkpoints repeats the collective write n times, one fresh file per
// dump within the same simulation — the periodic-checkpoint workload of
// the paper's introduction (0 and 1 both mean a single write).
func Checkpoints(n int) Option {
	return func(s *Spec) error { s.Steps = n; return nil }
}

// Compute advances every rank's clock by d of virtual compute time before
// each checkpoint dump.
func Compute(d time.Duration) Option {
	return func(s *Spec) error { s.Compute = sim.VTime(d); return nil }
}

// build applies options to the defaults without the final validation: a
// Grid's shared settings need not be runnable on the default shape.
func build(opts []Option) (*Spec, error) {
	s := &Spec{harness.Experiment{
		Platform: platform.Origin2000(),
		M:        1024,
		N:        8192,
		Procs:    4,
		Overlap:  16,
		Pattern:  harness.ColumnWise,
		Strategy: core.Coloring{},
	}}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("atomio: nil option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// New builds and validates a Spec from defaults plus options. Defaults are
// a laptop-scale version of the paper's measured workload: the column-wise
// overlapping write of a 1024x8192 array by 4 processes with 16 overlapped
// columns, using the graph-coloring strategy on Origin2000. Unknown
// platform, strategy, scenario, fault or pattern names are reported with
// the list of registered names; out-of-range values and incompatible
// combinations are reported by the experiment's single Validate.
func New(opts ...Option) (*Spec, error) {
	s, err := build(opts)
	if err != nil {
		return nil, err
	}
	return s, s.Validate()
}

// Run builds a Spec from the options and executes it — the one-call form
// of New followed by Spec.Run.
func Run(opts ...Option) (*Result, error) {
	s, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Conflicts is the conflict structure of a spec's file views: the paper's
// P×P overlap matrix W (Figure 5) and its greedy coloring — the number of
// barrier-separated I/O phases the coloring strategy would run.
type Conflicts struct {
	// Overlaps is W: Overlaps[i][j] reports whether rank i's view
	// overlaps rank j's.
	Overlaps [][]bool
	// Colors assigns each rank its greedy color.
	Colors []int
	// Phases is the number of distinct colors (I/O phases).
	Phases int
}

// String renders W as 0/1 rows, matching the paper's Figure 6 notation.
func (c *Conflicts) String() string {
	return core.FormatMatrix(c.Overlaps)
}

// Conflicts computes the spec's conflict structure without running the
// simulation.
func (s *Spec) Conflicts() (*Conflicts, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	views, err := s.Views()
	if err != nil {
		return nil, err
	}
	w := core.BuildOverlapMatrix(views)
	colors, phases := core.GreedyColor(w)
	return &Conflicts{Overlaps: w.Dense(), Colors: colors, Phases: phases}, nil
}

// Methods returns the names of the strategies the paper measures on a
// platform: locking is absent on platforms without byte-range locking.
func Methods(platformName string) ([]string, error) {
	prof, err := PlatformByName(platformName)
	if err != nil {
		return nil, err
	}
	strats := harness.Methods(prof)
	names := make([]string, len(strats))
	for i, s := range strats {
		names[i] = s.Name()
	}
	return names, nil
}

// SummarizeServerStats condenses a run's per-server statistics into the
// hot-server indicators degraded scenarios are read by.
func SummarizeServerStats(stats []ServerStats, makespan VTime) ServerStatsSummary {
	return harness.SummarizeServerStats(stats, makespan)
}

// WriteTraceJSONL writes a traced run's event stream and metrics as compact
// JSONL (schema atomio.trace/v1): a header line, one event per line in
// (T, Actor, Seq) order, and a final metrics line. The output is
// byte-identical across worker counts.
func WriteTraceJSONL(w io.Writer, r *TraceRecorder) error {
	return obs.WriteJSONL(w, r)
}

// WriteChromeTrace writes a traced run's event stream in the Chrome
// trace-event JSON format, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing; actors map to threads.
func WriteChromeTrace(w io.Writer, r *TraceRecorder) error {
	return obs.WriteChrome(w, r)
}

// NormalizePattern maps a partitioning-pattern flag value to its canonical
// name: it accepts the short flag forms (column, row, block) and the full
// names the harness prints (column-wise, row-wise, block-block). The empty
// string normalizes to the paper's measured column-wise pattern.
func NormalizePattern(name string) (string, error) {
	switch strings.TrimSpace(name) {
	case "", "column", "column-wise":
		return "column-wise", nil
	case "row", "row-wise":
		return "row-wise", nil
	case "block", "block-block":
		return "block-block", nil
	default:
		return "", fmt.Errorf("atomio: unknown pattern %q (want column, row or block)", name)
	}
}

// patternOf resolves a pattern name to the harness constant.
func patternOf(name string) (harness.Pattern, error) {
	canon, err := NormalizePattern(name)
	if err != nil {
		return 0, err
	}
	switch canon {
	case "row-wise":
		return harness.RowWise, nil
	case "block-block":
		return harness.BlockBlock, nil
	default:
		return harness.ColumnWise, nil
	}
}
