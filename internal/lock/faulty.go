package lock

import (
	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// FaultPlan answers lock-message fault queries. Decisions are keyed by the
// owner's per-class operation index in program order — the op-th Lock call
// and the op-th Unlock call a rank issues are deterministic regardless of
// engine or host scheduling — so a faulted run stays byte-identical across
// engines. fault.Injector implements the interface; the indirection keeps
// this package free of a fault dependency and lets tests script faults
// directly.
type FaultPlan interface {
	// LockDelay returns extra virtual latency for the owner's op-th lock
	// request (the message-reorder fault).
	LockDelay(owner, op int) sim.VTime
	// UnlockDropped reports whether the owner's op-th unlock message is
	// lost in transit.
	UnlockDropped(owner, op int) bool
	// UnlockDuplicated reports whether the owner's op-th unlock message
	// is delivered twice.
	UnlockDuplicated(owner, op int) bool
}

// Revoker is the lease-expiry hook both managers provide: RevokeAt force-
// releases (owner, e) with the release stamped at virtual time releaseAt,
// issued by the owner's actor at its current virtual time at. A revocation
// of a lock that is no longer (or never was) held is a no-op — leases and
// duplicated unlock messages make revocation inherently idempotent.
type Revoker interface {
	RevokeAt(owner int, e interval.Extent, at, releaseAt sim.VTime)
}

// RevokeAt implements Revoker for the central manager. It follows Unlock's
// coordination protocol exactly — take the owner's turn at the caller's
// current time, then stamp the release — so its determinism is inherited
// from the Unlock path.
func (c *Central) RevokeAt(owner int, e interval.Extent, at, releaseAt sim.VTime) {
	c.coord.Await(owner, at)
	// The grant may already be gone (duplicate release): ignore.
	_ = c.tbl.release(owner, e, releaseAt)
}

// RevokeAt implements Revoker for the distributed manager (see
// Central.RevokeAt). The owner keeps its cached token — only the active
// grant is revoked, matching a lease expiry that invalidates the lock but
// not the client's token state.
func (d *Distributed) RevokeAt(owner int, e interval.Extent, at, releaseAt sim.VTime) {
	d.coord.Await(owner, at)
	_ = d.tbl.release(owner, e, releaseAt)
}

// Faulty wraps a manager with a fault plan and a lease: lock requests can
// be delayed (reordered against other ranks' requests), unlock messages
// can be lost or duplicated. A lost unlock with a positive lease expires
// the grant at grant-time+lease via the manager's Revoker — waiters
// eventually proceed, at the price of serializing after the lease. A lost
// unlock with no lease wedges the range forever (the run stalls; only the
// teardown tests want that). Build with NewFaulty.
type Faulty struct {
	inner Manager
	rev   Revoker
	plan  FaultPlan
	lease sim.VTime
	obs   *obs.Recorder

	lockOps   map[int]int
	unlockOps map[int]int
	grants    map[grantKey]sim.VTime
}

type grantKey struct {
	owner int
	ext   interval.Extent
}

// NewFaulty wraps inner with the fault plan. A positive lease requires
// inner to implement Revoker (both concrete managers do); lease 0 disables
// revocation.
func NewFaulty(inner Manager, plan FaultPlan, lease sim.VTime) *Faulty {
	rev, _ := inner.(Revoker)
	if lease > 0 && rev == nil {
		panic("lock: NewFaulty with a lease needs a Revoker manager")
	}
	return &Faulty{
		inner: inner, rev: rev, plan: plan, lease: lease,
		lockOps:   make(map[int]int),
		unlockOps: make(map[int]int),
		grants:    make(map[grantKey]sim.VTime),
	}
}

// Name implements Manager.
func (f *Faulty) Name() string { return f.inner.Name() + "+faults" }

// SetCoord forwards the determinism coordinator to the wrapped manager.
func (f *Faulty) SetCoord(co sim.Coord) { f.inner.SetCoord(co) }

// SetObs keeps a recorder for the fault instants this wrapper injects and
// forwards it to the wrapped manager for the regular lock events.
func (f *Faulty) SetObs(o *obs.Recorder) {
	f.obs = o
	f.inner.SetObs(o)
}

// Unwrap returns the wrapped manager.
func (f *Faulty) Unwrap() Manager { return f.inner }

// nextOp returns and advances owner's per-class operation index.
func nextOp(ops map[int]int, owner int) int {
	op := ops[owner]
	ops[owner] = op + 1
	return op
}

// Lock implements Manager: the request is issued at at plus any scripted
// delay, and the grant time is remembered for lease accounting.
func (f *Faulty) Lock(owner int, e interval.Extent, mode Mode, at sim.VTime) sim.VTime {
	op := nextOp(f.lockOps, owner)
	grant := f.inner.Lock(owner, e, mode, at+f.plan.LockDelay(owner, op))
	f.grants[grantKey{owner, e}] = grant
	return grant
}

// Unlock implements Manager. A dropped unlock never reaches the manager:
// with a lease the grant is force-released at grant-time+lease, without
// one the range stays locked. A duplicated unlock delivers the release
// twice; the second copy is an idempotent no-op.
func (f *Faulty) Unlock(owner int, e interval.Extent, at sim.VTime) sim.VTime {
	op := nextOp(f.unlockOps, owner)
	key := grantKey{owner, e}
	grant, ok := f.grants[key]
	delete(f.grants, key)
	if !ok {
		grant = at
	}
	if f.plan.UnlockDropped(owner, op) {
		if f.obs != nil {
			f.obs.Emit(obs.Event{
				T: at, Actor: owner, Layer: obs.LayerFault, Kind: obs.KindUnlockDrop,
				Peer: -1, Off: e.Off, Len: e.Len,
			})
			f.obs.Count(owner, obs.MetricFaultPrefix+obs.KindUnlockDrop, 1)
		}
		if f.lease > 0 {
			// The lease timer started at the grant; the expiry event is
			// issued by the owner's actor at its current time, mirroring
			// the Unlock coordination protocol.
			releaseAt := grant + f.lease
			if releaseAt < at {
				releaseAt = at
			}
			if f.obs != nil {
				f.obs.Emit(obs.Event{
					T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRevoke,
					Peer: -1, Off: e.Off, Len: e.Len, Dur: releaseAt - at,
				})
				f.obs.Count(owner, obs.MetricLockRevokes, 1)
			}
			f.rev.RevokeAt(owner, e, at, releaseAt)
		}
		// The unlock message is lost; the caller pays nothing and moves on.
		return at
	}
	ret := f.inner.Unlock(owner, e, at)
	if f.plan.UnlockDuplicated(owner, op) && f.rev != nil {
		if f.obs != nil {
			f.obs.Emit(obs.Event{
				T: ret, Actor: owner, Layer: obs.LayerFault, Kind: obs.KindUnlockDup,
				Peer: -1, Off: e.Off, Len: e.Len,
			})
			f.obs.Count(owner, obs.MetricFaultPrefix+obs.KindUnlockDup, 1)
		}
		f.rev.RevokeAt(owner, e, ret, ret)
	}
	return ret
}

var (
	_ Manager = (*Faulty)(nil)
	_ Revoker = (*Central)(nil)
	_ Revoker = (*Distributed)(nil)
)
