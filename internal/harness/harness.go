// Package harness runs the paper's experiments end to end: it assembles a
// platform's simulated file system, lock manager and message-passing world,
// executes the column-wise (or row-wise / block-block) concurrent
// overlapping write with a chosen atomicity strategy, and reports aggregate
// write bandwidth from virtual time — the quantity plotted in Figure 8.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/interval"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/mpiio"
	"atomio/internal/obs"
	"atomio/internal/pfs"
	"atomio/internal/pfs/scenario"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/sim/fault"
	"atomio/internal/trace"
	"atomio/internal/verify"
	"atomio/internal/workload"
)

// Pattern selects the partitioning pattern.
type Pattern int

const (
	// ColumnWise is the paper's measured pattern (Figure 3(b)).
	ColumnWise Pattern = iota
	// RowWise is the contiguous pattern of §3.2 (ablation A4).
	RowWise
	// BlockBlock is the ghost-cell pattern of Figure 1 (ablation A2);
	// Procs must be a perfect square.
	BlockBlock
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case ColumnWise:
		return "column-wise"
	case RowWise:
		return "row-wise"
	case BlockBlock:
		return "block-block"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Experiment is one cell of the evaluation: platform × array × P × strategy.
type Experiment struct {
	Platform platform.Profile
	// M and N are the global array dimensions in bytes (elements are
	// 1-byte chars, as in the paper's Figure 4 code).
	M, N int
	// Procs is the number of MPI processes.
	Procs int
	// Overlap is the number of overlapped rows/columns R (even).
	Overlap int
	// Pattern selects the partitioning; the paper measures ColumnWise.
	Pattern Pattern
	// Strategy is the atomicity implementation under test.
	Strategy core.Strategy
	// StoreData has no effect: Verify alone decides whether the file keeps
	// who wrote each byte. It is kept only because the benchmark module
	// sets it.
	StoreData bool
	// Verify keeps who wrote each byte of the file and checks MPI atomicity
	// on it. Every rank writes offsets and lengths only, either way.
	Verify bool
	// AtomicListIO grants the simulated file system the §3.2 atomic
	// vectored-write capability (ablation A6). The core.ListIO strategy
	// implies it, so only a run probing the capability itself sets it.
	AtomicListIO bool
	// TraceEvents records the structured virtual-time event stream and the
	// metrics registry (see internal/obs): scheduler parks, MPI
	// collectives, lock grants, server pieces, fault instants, and each
	// rank's phase spans and per-phase counters (see PhaseBreakdown). The
	// stream is byte-identical across worker counts.
	TraceEvents bool
	// EventLimit selects what TraceEvents keeps: 0 every event, −1 (any
	// negative value) metrics only. A positive bound is an error.
	EventLimit int
	// Servers overrides the platform's simulated I/O-server count (0
	// keeps the platform default). Server count is a real model parameter:
	// changing it changes virtual timings.
	Servers int
	// Scenario applies a per-server perturbation profile (nil = healthy).
	// Profiles that slow servers or skew affinity produce output that is
	// explicitly non-comparable to the healthy simulator's.
	Scenario *scenario.Profile
	// Steps repeats the collective write this many times, each step
	// writing a fresh file within the same simulation — the periodic
	// checkpoint workload of the paper's introduction. 0 and 1 both mean
	// a single write to "experiment.dat".
	Steps int
	// Compute advances every rank's clock by this much virtual compute
	// time before each step (perfectly parallel computation between
	// checkpoint dumps). Ignored unless positive.
	Compute sim.VTime
	// Faults applies a failure-injection script to the run (nil = healthy):
	// server crash windows, lock-message faults and writer crashes, all
	// deterministic functions of virtual time and per-owner operation
	// counters (see internal/sim/fault). Lock faults require a platform
	// with locking; they are ignored on lockless file systems.
	Faults *fault.Script
	// Recovery turns on the file system's write-ahead intent log during
	// the run and replays it over fault damage before verification. Off,
	// a faulted run keeps whatever the crash left behind — the fleet's
	// negative control.
	Recovery bool
}

// Result is the outcome of one experiment.
type Result struct {
	Experiment Experiment
	// Makespan is the virtual time from start to the last rank's finish.
	Makespan sim.VTime
	// ArrayBytes is the useful data volume: M*N per collective write,
	// times the number of steps for checkpoint runs (Steps > 1).
	ArrayBytes int64
	// WrittenBytes is the number of bytes clients physically wrote
	// (includes overlap duplicates; excludes bytes the ordering strategy
	// surrendered).
	WrittenBytes int64
	// BandwidthMBs is ArrayBytes / Makespan in MB/s — the Figure 8 metric.
	BandwidthMBs float64
	// IOTime is the largest cumulative virtual time any rank spent inside
	// the collective writes (WriteAll through Close). Single-step runs
	// track the makespan; checkpoint runs (Steps > 1) exclude the compute
	// time between dumps.
	IOTime sim.VTime
	// Report is the atomicity check (nil unless Verify).
	Report *verify.Report
	// Verdict classifies the atomicity outcome — serializable, torn, or
	// recovered-serializable (empty unless Verify).
	Verdict verify.Verdict
	// Replayed lists the ranks whose logged intents recovery replayed
	// over fault damage, ascending (nil when Recovery is off or nothing
	// was damaged).
	Replayed []int
	// Events is the structured event recorder (nil unless TraceEvents).
	Events *obs.Recorder
	// Metrics is the merged metrics snapshot (nil unless TraceEvents).
	Metrics *obs.Metrics
	// ServerStats is every I/O server's traffic and queue state, in
	// server order — the observability layer behind the degraded-server
	// scenarios.
	ServerStats []pfs.ServerStats
	// RankTimes is every rank's final virtual clock, in rank order. The
	// schedule explorer's tests pin these per-rank values (not just the
	// makespan) between its identity schedule and Run.
	RankTimes []sim.VTime
}

// PhaseBreakdown renders the run's per-phase virtual time: one row per
// phase with the largest and the mean per-rank total, read from the phase
// counters a traced run records ("" unless TraceEvents).
func (r *Result) PhaseBreakdown() string {
	if r.Events == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "phase", "max/rank", "mean/rank")
	procs := r.Events.Actors()
	for _, p := range trace.Phases {
		var total, most sim.VTime
		for rank := 0; rank < procs; rank++ {
			d := sim.VTime(r.Events.Counter(rank, trace.Counter(p)))
			total += d
			most = max(most, d)
		}
		fmt.Fprintf(&b, "%-12s %12v %12v\n", p, most, total/sim.VTime(procs))
	}
	return b.String()
}

// ServerStatsSummary condenses a run's per-server statistics into the two
// hot-server indicators degraded scenarios are read by: how occupied the
// busiest queue was, and how skewed the byte distribution is.
type ServerStatsSummary struct {
	// MaxOccupancy is the hottest server's busy time over the makespan.
	MaxOccupancy float64
	// MaxByteShare is the hottest server's share of all bytes moved.
	MaxByteShare float64
}

// SummarizeServerStats computes the summary over a run's server stats.
func SummarizeServerStats(stats []pfs.ServerStats, makespan sim.VTime) ServerStatsSummary {
	var out ServerStatsSummary
	var total int64
	for _, s := range stats {
		total += s.Bytes
	}
	for _, s := range stats {
		if makespan > 0 {
			if occ := s.Busy.Seconds() / makespan.Seconds(); occ > out.MaxOccupancy {
				out.MaxOccupancy = occ
			}
		}
		if total > 0 {
			if share := float64(s.Bytes) / float64(total); share > out.MaxByteShare {
				out.MaxByteShare = share
			}
		}
	}
	return out
}

func (e Experiment) String() string {
	return fmt.Sprintf("%s %dx%d P=%d R=%d %s %s",
		e.Platform.Name, e.M, e.N, e.Procs, e.Overlap, e.Pattern, e.Strategy.Name())
}

// piece returns rank's share under the experiment's pattern.
func (e Experiment) piece(rank int) (workload.Piece, error) {
	switch e.Pattern {
	case RowWise:
		return workload.RowWise(e.M, e.N, e.Procs, e.Overlap, rank)
	case BlockBlock:
		side := 1
		for side*side < e.Procs {
			side++
		}
		if side*side != e.Procs {
			return workload.Piece{}, fmt.Errorf("harness: block-block needs square P, got %d", e.Procs)
		}
		return workload.BlockBlock(e.M, e.N, side, side, e.Overlap, rank)
	default:
		return workload.ColumnWise(e.M, e.N, e.Procs, e.Overlap, rank)
	}
}

// Views returns every rank's flattened file view under the experiment's
// pattern — the extent lists the verify and conflict-analysis layers
// consume.
func (e Experiment) Views() ([]interval.List, error) {
	views := make([]interval.List, e.Procs)
	for rank := 0; rank < e.Procs; rank++ {
		p, err := e.piece(rank)
		if err != nil {
			return nil, err
		}
		views[rank] = interval.List(p.Filetype.Flatten())
	}
	return views, nil
}

// Upper bounds on the values a run sizes allocations from: past them
// Validate reports an error instead of the process running out of memory.
const (
	// MaxProcs: every rank is a coroutine with its own stack and view; four
	// times the largest scaling point (16384).
	MaxProcs = 1 << 16
	// MaxServers: the file system builds a queue, a cost model and a
	// counter per server.
	MaxServers = 1 << 16
	// MaxSteps: every checkpoint step is a whole collective write.
	MaxSteps = 1 << 16
)

// Validate reports the first range, bound or compatibility rule the
// experiment breaks — the one statement of what a runnable cell is. Run
// applies it before building anything; the facade's New applies it last.
func (e Experiment) Validate() error {
	_, err := e.config()
	return err
}

// config validates the experiment and resolves the file-system
// configuration it runs on.
func (e Experiment) config() (pfs.Config, error) {
	var cfg pfs.Config
	switch {
	case e.M < 1 || e.N < 1:
		return cfg, fmt.Errorf("harness: array shape %dx%d must be positive", e.M, e.N)
	case int64(e.M) > math.MaxInt64/int64(e.N):
		return cfg, fmt.Errorf("harness: array shape %dx%d exceeds int64 bytes", e.M, e.N)
	case e.Procs < 1 || e.Procs > MaxProcs:
		return cfg, fmt.Errorf("harness: process count must be positive and at most %d, got %d", MaxProcs, e.Procs)
	case e.Overlap < 0:
		return cfg, fmt.Errorf("harness: overlap must be non-negative, got %d", e.Overlap)
	case e.Servers < 0 || e.Servers > MaxServers:
		return cfg, fmt.Errorf("harness: servers must be non-negative and at most %d, got %d", MaxServers, e.Servers)
	case e.Steps < 0 || e.Steps > MaxSteps:
		return cfg, fmt.Errorf("harness: checkpoint steps must be non-negative and at most %d, got %d", MaxSteps, e.Steps)
	case int64(e.M)*int64(e.N) > math.MaxInt64/int64(max(e.Steps, 1)):
		return cfg, fmt.Errorf("harness: %d checkpoint steps of a %dx%d array exceed int64 bytes", e.Steps, e.M, e.N)
	case e.Compute < 0:
		return cfg, fmt.Errorf("harness: compute time must be non-negative, got %v", e.Compute)
	case e.EventLimit > 0:
		return cfg, fmt.Errorf("harness: event limit must be 0 (every event) or -1 (metrics only), got %d", e.EventLimit)
	case e.Strategy == nil:
		return cfg, fmt.Errorf("harness: nil strategy")
	case e.Strategy.Name() == "locking" && !e.Platform.SupportsLocking():
		return cfg, fmt.Errorf("harness: strategy %q on platform %q: %w",
			e.Strategy.Name(), e.Platform.Name, core.ErrNoLockManager)
	}
	// Whether a piece exists does not depend on the rank, so rank 0's
	// reports a shape the pattern cannot partition.
	if _, err := e.piece(0); err != nil {
		return cfg, err
	}
	// Verification reads who wrote the file from the store's records, which
	// nothing else reads.
	cfg = e.Platform.PFSConfig(e.Verify)
	cfg.AtomicListIO = e.AtomicListIO || e.Strategy.Name() == "listio"
	cfg.WAL = e.Recovery
	if e.Servers > 0 {
		cfg.Servers = e.Servers
	}
	if e.Scenario != nil {
		return e.Scenario.Apply(cfg)
	}
	return cfg, nil
}

// Run executes the experiment on the event-loop engine and returns its
// result.
func (e Experiment) Run() (*Result, error) { return e.run(des.New()) }

// run executes the experiment on eng. Every caller outside this package's
// tests passes the event loop; the schedule explorer passes an event loop
// that delays chosen announcements, to admit actions in other legal orders.
func (e Experiment) run(eng sim.Engine) (*Result, error) {
	cfg, err := e.config()
	if err != nil {
		return nil, err
	}
	fs, err := pfs.New(cfg)
	if err != nil {
		return nil, err
	}
	mgr := e.Platform.NewLockManager()

	// Failure injection: the injector filters server traffic inside the
	// file system, and lock-message faults wrap the manager in the faulty
	// decorator (with lease-based revocation so a dropped unlock heals).
	var inj *fault.Injector
	if e.Faults != nil {
		inj = fault.New(*e.Faults)
		fs.SetFault(inj)
		if mgr != nil && inj.HasLockFaults() {
			mgr = lock.NewFaulty(mgr, inj, inj.Lease())
		}
	}

	// One coordinator spans the whole simulation — ranks, file system and
	// lock manager — so every run of an experiment produces identical
	// virtual timings regardless of host scheduling or how many
	// experiments execute concurrently (see sim.Coord and internal/sim/des).
	coord := eng.NewCoord(e.Procs)

	// Event tracing wraps the coordinator before any layer sees it, so the
	// scheduler's park spans observe the same admission protocol every
	// layer coordinates through. The engine unwraps tracers when it needs
	// its own concrete coordinator back.
	var events *obs.Recorder
	if e.TraceEvents {
		events = obs.NewRecorder(e.Procs, e.EventLimit)
		coord = obs.Trace(coord, events)
	}
	fs.SetCoord(coord)
	fs.SetObs(events)
	if mgr != nil {
		mgr.SetCoord(coord)
		mgr.SetObs(events)
	}

	// A single-step run writes "experiment.dat"; checkpoint runs write one
	// fresh file per step within the same simulation, so server queues and
	// caches carry over between dumps exactly as they would in a long-
	// running application.
	steps := e.Steps
	if steps < 1 {
		steps = 1
	}
	stepName := func(step int) string {
		if steps == 1 {
			return "experiment.dat"
		}
		return fmt.Sprintf("experiment-%03d.dat", step)
	}

	// Each rank's piece, whose filetype its file views borrow.
	pieces := make([]workload.Piece, e.Procs)
	for rank := range pieces {
		if pieces[rank], err = e.piece(rank); err != nil {
			return nil, err
		}
	}
	views := make([]interval.List, e.Procs)
	written := make([]int64, e.Procs)
	ioTimes := make([]sim.VTime, e.Procs)
	mpiCfg := e.Platform.MPIConfig(e.Procs)
	mpiCfg.Coord = coord
	mpiCfg.Engine = eng
	mpiCfg.Obs = events
	res, runErr := mpi.Run(mpiCfg, func(c *mpi.Comm) error {
		piece := &pieces[c.Rank()]
		for step := 0; step < steps; step++ {
			if e.Compute > 0 {
				c.Clock().Advance(e.Compute)
			}
			f, err := mpiio.Open(c, fs, mgr, stepName(step))
			if err != nil {
				return err
			}
			if err := f.SetView(0, datatype.Byte, &piece.Filetype); err != nil {
				return err
			}
			if e.Verify {
				// What Check compares the file to: the request itself, lent by the view.
				views[c.Rank()] = f.View().Extents(0, piece.BufBytes)
			}
			if err := f.SetAtomicity(true); err != nil {
				return err
			}
			if err := f.SetStrategy(e.Strategy); err != nil {
				return err
			}
			f.SetEvents(events)
			if inj != nil {
				f.SetFaults(inj)
			}
			start := c.Now()
			// The content is nobody's concern: the store keeps who wrote
			// each byte, which is what verification checks.
			if err := f.WriteAll(piece.BufBytes); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			ioTimes[c.Rank()] += c.Now() - start
			written[c.Rank()] += f.Client().BytesWritten()
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}

	out := &Result{
		Experiment:  e,
		Makespan:    res.MaxTime,
		ArrayBytes:  int64(e.M) * int64(e.N) * int64(steps),
		ServerStats: fs.ServerStats(),
		RankTimes:   res.Times,
	}
	for _, w := range written {
		out.WrittenBytes += w
	}
	for _, t := range ioTimes {
		if t > out.IOTime {
			out.IOTime = t
		}
	}
	if res.MaxTime > 0 {
		out.BandwidthMBs = float64(out.ArrayBytes) / (1 << 20) / res.MaxTime.Seconds()
	}
	// Recovery is the post-crisis phase: servers are back, so the replay
	// bypasses the fault filter and charges no virtual time. It must run
	// before verification — the verdict describes the recovered file.
	if e.Recovery {
		var all []int
		for step := 0; step < steps; step++ {
			replayed, err := fs.Recover(stepName(step))
			if err != nil {
				return nil, err
			}
			all = append(all, replayed...)
		}
		sort.Ints(all)
		for _, r := range all {
			if n := len(out.Replayed); n == 0 || out.Replayed[n-1] != r {
				out.Replayed = append(out.Replayed, r)
			}
		}
		// Replay happens after the simulated run and charges no virtual
		// time, so its events are stamped at the makespan — the earliest
		// instant the whole system is quiescent.
		if events != nil {
			for _, r := range out.Replayed {
				events.Emit(obs.Event{
					T: res.MaxTime, Actor: r, Layer: obs.LayerPFS,
					Kind: obs.KindWALReplay, Peer: -1,
				})
				events.Count(r, obs.MetricWALReplays, 1)
			}
		}
	}
	if e.Verify {
		// Every dump must be atomic: each step's file is checked under the
		// server-queue and cache state it was actually written in, and the
		// first violating report is surfaced. When all are clean the last
		// report stands — views are identical across steps, so its atom
		// count and overlapped volume describe any single dump.
		for step := 0; step < steps; step++ {
			rep, err := verify.Check(fs, stepName(step), views)
			if err != nil {
				return nil, err
			}
			out.Report = rep
			if !rep.Atomic() {
				break
			}
		}
		out.Verdict = verify.Classify(out.Report, len(out.Replayed) > 0)
	}
	if events != nil {
		out.Events = events
		out.Metrics = events.Metrics()
	}
	return out, nil
}
