// Package mpi is an in-process message-passing runtime modelled on the MPI
// subset the paper's atomicity strategies require: ranks with identities,
// communicators with private contexts (Dup), and the collectives the
// handshakes use — barrier, allgather(v) and alltoall, plus the broadcast
// inside Dup — timed as the textbook algorithms (dissemination barrier,
// ring allgather, pairwise alltoall, binomial-tree broadcast) so that message
// counts and volumes — and therefore the virtual-time cost of the
// handshaking strategies — match what a real MPI implementation would incur.
// The barrier and the allgather keep that schedule but simulate no message:
// their ranks meet at a rendezvous that solves it in closed form (see
// collectives.go for which collectives may). Messages match on the exact
// (context, source, tag): there are no wildcards and no user-level
// point-to-point calls.
//
// Ranks execute inside a World created by Run, as resumable coroutines of
// the single-threaded event-loop scheduler (internal/sim/des) unless
// Config.Engine names another sim.Engine (internal/harness's schedule
// explorer passes one that reorders admissions). Every rank
// owns a virtual clock (see package sim); sends stamp messages with the
// sender's clock and receives advance the receiver's clock to
// max(local, sent+transfer); the engine's coordinator admits sends in
// (virtual time, rank) order, which makes the timings deterministic.
//
// Like package sync, mpi treats misuse (invalid ranks, mismatched collective
// calls) as programmer error and panics; I/O-level failures are reported as
// errors by the higher layers.
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// Config describes a World to be run.
type Config struct {
	// Procs is the number of ranks. Must be at least 1.
	Procs int
	// Net is the message-transfer cost model. Nil means free transfers.
	Net sim.CostModel
	// SendOverhead and RecvOverhead are the per-message CPU overheads
	// charged to the sender and receiver respectively.
	SendOverhead sim.VTime
	RecvOverhead sim.VTime
	// Timeout is the real-time limit for the whole run; it guards tests
	// against communication deadlocks. Zero means 120 seconds.
	Timeout time.Duration
	// Engine executes the rank bodies. Nil means a fresh event-loop engine
	// (internal/sim/des).
	Engine sim.Engine
	// Coord serializes every cross-rank interaction into deterministic
	// virtual-time order (see sim.Coord). Set it — to a coordinator from
	// Engine.NewCoord(Procs), possibly wrapped by a tracer — when the run
	// shares it with a lock manager or file system (their SetCoord); nil
	// means Run takes a fresh one from Engine. Setting Coord without
	// Engine is an error: a coordinator only works on the engine it came
	// from.
	Coord sim.Coord
	// Obs, when non-nil, receives an mpi.send/mpi.recv event (tagged with
	// the enclosing collective, sized, with world-rank peers) for every
	// message, plus message counters. Nil costs one pointer test per
	// message.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Net == nil {
		c.Net = sim.Free{}
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	return c
}

// World is one running message-passing program: its ranks' mailboxes and
// clocks, and the bookkeeping of its communicators.
type World struct {
	cfg       Config
	mailboxes []*mailbox
	clocks    []*sim.Clock

	// mu guards the communicator context-id allocator; the collective calls
	// in flight (shared, the memo table behind Comm.Shared, and meetings,
	// the rendezvous of the synchronizing collectives: an entry goes once
	// every rank of its communicator arrived); which world ranks sleep in a
	// rendezvous; and whether the world was aborted.
	mu       sync.Mutex
	nextCtx  int
	shared   map[sharedKey]*sharedEntry
	meetings map[sharedKey]*rendezvous
	parked   []bool
	aborted  bool
}

func newWorld(cfg Config) *World {
	w := &World{cfg: cfg, nextCtx: 1, parked: make([]bool, cfg.Procs),
		shared: make(map[sharedKey]*sharedEntry), meetings: make(map[sharedKey]*rendezvous)}
	w.mailboxes = make([]*mailbox, cfg.Procs)
	w.clocks = make([]*sim.Clock, cfg.Procs)
	for i := range w.mailboxes {
		// The mailbox wakes its blocked owner through the coordinator; it
		// needs the owner's id and the receive cost model to publish a
		// sound lower bound on the owner's post-receive time.
		m := newMailbox()
		m.coord, m.owner, m.net, m.recvOverhead = cfg.Coord, i, cfg.Net, cfg.RecvOverhead
		w.mailboxes[i] = m
		w.clocks[i] = sim.NewClock(0)
	}
	return w
}

// abortAll wakes every rank blocked in a receive or a rendezvous; used when
// a rank fails so the failure surfaces immediately instead of as a run
// timeout (this mirrors MPI's job-abort-on-error behaviour).
func (w *World) abortAll() {
	for _, m := range w.mailboxes {
		m.abort()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.aborted = true
	for id, asleep := range w.parked {
		if asleep {
			w.parked[id] = false
			w.cfg.Coord.Wake(id, 0)
		}
	}
}

func (w *World) allocCtx() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.nextCtx
	w.nextCtx++
	return c
}

// Result reports the outcome of a Run: the final virtual time of every rank
// and their maximum, which is the virtual makespan of the program.
type Result struct {
	Times   []sim.VTime
	MaxTime sim.VTime
}

// RankFunc is the body executed by every rank.
type RankFunc func(c *Comm) error

// RankError wraps an error (or recovered panic) from one rank.
type RankError struct {
	Rank int
	Err  error
}

// Error implements the error interface.
func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap returns the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Run executes body on cfg.Procs ranks and waits for all of them. It returns
// the per-rank virtual completion times and the first rank error, if any.
// A rank that panics is reported as a RankError carrying the panic value.
// When any rank fails, the world is aborted: ranks blocked in a receive or a
// rendezvous are unwound immediately (MPI's job-abort-on-error behaviour),
// and the root-cause error is the one reported. A run that otherwise ends
// cleanly but leaves a collective half-entered or a message unreceived fails
// too: some rank skipped a call its peers made. If the ranks do not finish within
// cfg.Timeout (a communication deadlock), Run returns an error instead of
// hanging forever.
//
// Ranks run on cfg.Engine and block through cfg.Coord; Run supplies the
// event loop and its coordinator for whichever is unset (see Config).
func Run(cfg Config, body RankFunc) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mpi: Procs must be >= 1, got %d", cfg.Procs)
	}
	given := cfg.Coord
	if cfg.Engine == nil {
		if given != nil {
			return nil, errors.New("mpi: Config.Coord set without Config.Engine")
		}
		cfg.Engine = des.New()
	}
	if given == nil {
		cfg.Coord = cfg.Engine.NewCoord(cfg.Procs)
	} else if given.Actors() != cfg.Procs {
		return nil, fmt.Errorf("mpi: coordinator sized for %d actors, world has %d ranks",
			given.Actors(), cfg.Procs)
	}
	w := newWorld(cfg)
	ctx := w.allocCtx()
	group := make([]int, cfg.Procs)
	for i := range group {
		group[i] = i
	}

	errs := make([]*RankError, cfg.Procs)
	rankBody := func(rank int) {
		// Retire the actor however the rank exits — normally, by error, or
		// unwinding from an abort — so peers never wait on a dead rank.
		defer cfg.Coord.Done(rank)
		defer func() {
			if p := recover(); p != nil {
				switch p.(type) {
				case abortError, sim.StoppedError:
					// Unwound by a world abort, or by engine teardown of a
					// stalled rank: a consequence, not a root cause.
					errs[rank] = &RankError{Rank: rank, Err: p.(error)}
				default:
					errs[rank] = &RankError{
						Rank: rank,
						Err:  fmt.Errorf("panic: %v\n%s", p, debug.Stack()),
					}
				}
				w.abortAll()
			}
		}()
		c := &Comm{world: w, ctx: ctx, rank: rank, group: group, clock: w.clocks[rank]}
		if err := body(c); err != nil {
			errs[rank] = &RankError{Rank: rank, Err: err}
			w.abortAll()
		}
	}

	var engErr error
	done := make(chan struct{})
	go func() {
		engErr = cfg.Engine.Run(cfg.Coord, cfg.Procs, rankBody)
		close(done)
	}()
	select {
	case <-done:
	//atomiovet:allow simclock host-time watchdog against a run that never returns; wall time never reaches simulated results
	case <-time.After(cfg.Timeout):
		return nil, fmt.Errorf("mpi: run timed out after %v (likely communication deadlock)", cfg.Timeout)
	}

	res := &Result{Times: make([]sim.VTime, cfg.Procs)}
	for i, c := range w.clocks {
		res.Times[i] = c.Now()
		if c.Now() > res.MaxTime {
			res.MaxTime = c.Now()
		}
	}
	// Report the root-cause error: a rank that failed on its own, in
	// preference to an engine-level stall, in preference to ranks that were
	// merely unwound by the resulting abort or teardown.
	var aborted *RankError
	for _, e := range errs {
		if e == nil {
			continue
		}
		switch e.Err.(type) {
		case abortError, sim.StoppedError:
			if aborted == nil {
				aborted = e
			}
		default:
			return res, e
		}
	}
	// A run that leaves a collective call in flight skipped it on some rank:
	// the ranks asleep in its rendezvous stalled the engine, or, after a
	// Shared call, the later ones on that communicator paired up wrongly.
	// A message still queued was sent to a receive no rank ever made.
	stranded := []error{engErr}
	if n := len(w.shared) + len(w.meetings); n != 0 {
		stranded = append(stranded,
			fmt.Errorf("mpi: %d collectives were not reached by every rank of their communicator", n))
	}
	queued := 0
	for _, m := range w.mailboxes {
		queued += len(m.queue)
	}
	if queued != 0 {
		stranded = append(stranded, fmt.Errorf("mpi: %d messages were sent but never received", queued))
	}
	if len(stranded) > 1 {
		return res, errors.Join(stranded...)
	}
	if engErr != nil {
		return res, engErr
	}
	if aborted != nil {
		return res, aborted
	}
	return res, nil
}
