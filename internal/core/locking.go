package core

import (
	"errors"

	"atomio/internal/interval"
	"atomio/internal/lock"
	"atomio/internal/pfs"
	"atomio/internal/trace"
)

// ErrNoLockManager is returned when the locking strategy runs on a file
// system without byte-range locking (the paper could not run the locking
// experiments on Cplant's ENFS for this reason).
var ErrNoLockManager = errors.New("core: file system provides no byte-range locking")

// Locking is the byte-range file-locking strategy of §3.2: acquire one
// exclusive lock covering the whole request span — "the file lock must
// start at the process's first file offset and end at the very last file
// offset the process will write, virtually the entire file" — write, flush,
// and release. For the column-wise pattern the spans of all ranks
// interleave, so the lock conflicts serialize all writers; that is the
// measured collapse of the locking curves in Figure 8.
type Locking struct {
	// PerSegment switches to locking each contiguous segment separately.
	// That mode is intentionally WRONG for MPI atomicity (the paper:
	// "Enforcing the atomicity of individual read()/write() calls is not
	// sufficient to enforce MPI atomicity") and exists so tests can
	// demonstrate the violation.
	PerSegment bool
}

// Name implements Strategy.
func (s Locking) Name() string {
	if s.PerSegment {
		return "locking-per-segment"
	}
	return "locking"
}

// WriteAll implements Strategy.
func (s Locking) WriteAll(ctx *Context, req interval.List) error {
	if ctx.LockMgr == nil {
		return ErrNoLockManager
	}
	clock := ctx.Comm.Clock()
	rank := ctx.Comm.Rank()
	b := pfs.Batch{Ext: req}
	if s.PerSegment {
		for i, e := range req {
			grant := ctx.LockMgr.Lock(rank, e, lock.Exclusive, clock.Now())
			clock.AdvanceTo(grant)
			ctx.Client.Write(b.Slice(i, i+1))
			ctx.Client.Sync()
			clock.AdvanceTo(ctx.LockMgr.Unlock(rank, e, clock.Now()))
		}
		return nil
	}
	span := req.Bounds()
	if span.Empty() {
		return nil
	}
	lockSpan := ctx.span(trace.PhaseLockWait)
	grant := ctx.LockMgr.Lock(rank, span, lock.Exclusive, clock.Now())
	clock.AdvanceTo(grant)
	lockSpan.Stop()
	// While locked, all traffic goes to the servers: write and flush
	// before releasing so the data is visible to the next lock holder.
	k, crashed := ctx.crashPoint(len(req))
	xfer := ctx.span(trace.PhaseTransfer)
	ctx.Client.Write(b.Slice(0, k))
	if crashed {
		// The writer dies mid-request: the remaining extents are never
		// issued and become damage. The lock still comes back (lease
		// revocation on the real system); charging it as a normal release
		// keeps the run deterministic.
		ctx.Client.Damage(req[k:])
	}
	ctx.Client.Sync()
	xfer.Stop()
	clock.AdvanceTo(ctx.LockMgr.Unlock(rank, span, clock.Now()))
	return nil
}

var _ Strategy = Locking{}
