// Package core implements the paper's contribution: the three strategies
// that make concurrent overlapping MPI-IO writes obey MPI atomicity
// semantics.
//
//   - Locking — wrap each process's whole (possibly non-contiguous) request
//     in one exclusive byte-range lock spanning first to last byte (§3.2,
//     the ROMIO approach).
//   - Coloring — exchange file views, build the P×P overlap matrix W,
//     greedily color the conflict graph (Figure 5), and write in one phase
//     per color with barriers in between (§3.3.1).
//   - RankOrder — exchange file views and let the highest overlapping rank
//     own every contested byte; lower ranks clip their views and all ranks
//     write concurrently with zero overlap (§3.3.2).
//
// Strategies operate on a Context assembled by package mpiio. All three are
// collective: every rank of the communicator must call WriteAll together.
package core

import (
	"atomio/internal/interval"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/obs"
	"atomio/internal/pfs"
	"atomio/internal/trace"
)

// Context carries the per-rank machinery a strategy needs.
type Context struct {
	// Comm is a library-private communicator (a Dup of the application's).
	Comm *mpi.Comm
	// Client is this rank's file-system client.
	Client *pfs.Client
	// LockMgr is the platform's lock manager; nil when the file system
	// has no byte-range locking (Cplant ENFS).
	LockMgr lock.Manager
	// Obs, when non-nil, receives the rank's phase spans and per-phase
	// virtual-time counters (handshake / lock wait / transfer / sync wait /
	// exchange).
	Obs *obs.Recorder
	// Fault, when non-nil, is the failure-injection plan consulted for
	// writer crashes.
	Fault Faults
}

// span opens a phase span for this rank; no-op when tracing is off.
func (ctx *Context) span(p trace.Phase) trace.Span {
	return trace.Start(ctx.Obs, ctx.Comm.Rank(), p, ctx.Comm.Clock())
}

// Faults is the slice of the failure-injection surface a strategy consults:
// whether this rank's writer dies mid-request, and after how many committed
// extents. Implemented by sim/fault.Injector; nil on healthy runs. A
// strategy that hits a crash must still complete its collective protocol
// (barriers, exchanges) so the surviving ranks do not hang — the crash
// surrenders data, not control flow — and must report the never-written
// extents through Client.Damage so recovery and the verifier see them.
type Faults interface {
	WriterCrash(rank int) (segments int, crashed bool)
}

// crashPoint consults the fault plan for this rank: it returns how many of
// n extents the writer commits before dying and whether it dies at all
// (k == n, false on healthy runs).
func (ctx *Context) crashPoint(n int) (int, bool) {
	if ctx.Fault == nil {
		return n, false
	}
	k, crashed := ctx.Fault.WriterCrash(ctx.Comm.Rank())
	if !crashed {
		return n, false
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k, true
}

// Strategy is one atomicity implementation.
type Strategy interface {
	// Name returns the strategy's short name as used in the paper's plots.
	Name() string
	// WriteAll collectively writes the request's file extents, one per
	// contiguous file segment, in buffer order: the extents alone say how
	// many bytes go where. The request is canonical, as
	// fileview.View.Extents builds it, and lent — typically the file
	// view's own stored tile — and read-only. It guarantees MPI atomic
	// semantics for the overlaps.
	WriteAll(ctx *Context, req interval.List) error
}
