// Package lock implements the byte-range lock managers the paper's locking
// strategy runs on: a Central manager (the NFS/XFS flavour, one server
// processing every lock and unlock request) and a Distributed GPFS-style
// token manager (Schmuck & Haskin, FAST'02 — the paper's reference [8])
// where clients cache byte-range tokens and conflicting requests pay a
// revocation cost.
//
// Managers are shared by all ranks of a run. Lock blocks the caller —
// parked on the run's sim.Coord until the releaser's Wake — until the range
// can be granted, and returns the virtual grant time, computed as
// the maximum of the request's virtual arrival, the manager's service
// queue, and the virtual release times of every conflicting lock that had
// to be waited out. Because the caller sleeps until the conflicting holders
// have released, those release timestamps are always available when needed
// (see package sim). A manager that was never handed a coordinator
// (SetCoord) serves a single caller: its coordinator is sim.Solo, under
// which a contended Lock panics instead of hanging.
//
// Both managers run on one conflict-tracking grant table (see table): an
// interval index of granted locks, each with a queue of the waiters it
// blocks, and the range history of past releases; grants go out in
// deterministic (ticket, seq) order. The engine runs one actor at a time,
// so the table takes no lock of its own.
package lock

import (
	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared allows concurrent holders (read locks).
	Shared Mode = iota
	// Exclusive admits a single holder (write locks).
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Exclusive {
		return "exclusive"
	}
	return "shared"
}

// Manager grants byte-range locks in virtual time.
type Manager interface {
	// Lock blocks until owner can hold extent e in the given mode, with
	// the request issued at virtual time `at`, and returns the virtual
	// grant time (>= at).
	Lock(owner int, e interval.Extent, mode Mode, at sim.VTime) sim.VTime
	// Unlock releases a previously granted lock at virtual time `at` and
	// returns the caller's virtual time after issuing the release.
	Unlock(owner int, e interval.Extent, at sim.VTime) sim.VTime
	// Name identifies the manager flavour.
	Name() string
	// SetCoord routes the manager's shared-state transitions through the
	// run's coordinator. Call before the run starts.
	SetCoord(sim.Coord)
	// SetObs routes lock events and metrics into a recorder; nil disarms.
	// Call before the run starts.
	SetObs(*obs.Recorder)
}
