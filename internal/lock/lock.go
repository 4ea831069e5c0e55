// Package lock implements the byte-range lock managers the paper's locking
// strategy runs on: a Central manager (the NFS/XFS flavour, one server
// processing every lock and unlock request) and a Distributed GPFS-style
// token manager (Schmuck & Haskin, FAST'02 — the paper's reference [8])
// where clients cache byte-range tokens and conflicting requests pay a
// revocation cost.
//
// Managers are shared by all ranks of a run. Lock blocks the caller —
// Block then Park on the run's sim.Coord, until the releaser's Wake — until
// the range can be granted, and returns the virtual grant time, computed as
// the maximum of the request's virtual arrival, the manager's service
// queue, and the virtual release times of every conflicting lock that had
// to be waited out. Because the caller sleeps until the conflicting holders
// have released, those release timestamps are always available when needed
// (see package sim). A manager that was never handed a coordinator
// (SetCoord) serves a single caller: its coordinator is sim.Solo, under
// which a contended Lock panics instead of hanging.
//
// Both managers run on a conflict-tracking grant table that can be
// partitioned across S offset-stripe shards (CentralConfig.Shards,
// DistributedConfig.Shards): each shard owns its own interval index of
// granted locks, its own waiter index, and its own slice of the release
// history, with cross-shard span locks taken in ascending shard order and
// grants handed out in table-wide deterministic (ticket, seq) order.
// Sharding never touches the simulation model: virtual timings are
// byte-identical for any shard count (see shardedTable). It splits mutexes
// only concurrent callers contend on: on the single-threaded event loop it
// buys no host time (the shard sweep's wall column is flat).
package lock

import (
	"fmt"
	"sync"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
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
}

// grantTable is the conflict-tracking core behind a manager: it registers
// granted locks, blocks conflicting requests, and hands freed ranges to
// waiters in deterministic (ticket, seq) order. Two implementations exist:
// the single-mutex table (the original, kept as the oracle and the
// single-shard fast path) and the stripe-sharded shardedTable. Both produce
// identical grant times, grant order, and release history for any request
// sequence — the property the sharded quick-tests pin.
type grantTable interface {
	// acquire blocks until (owner, e, mode) is grantable and returns the
	// virtual grant time (>= earliest, and after every conflicting lock's
	// virtual release).
	acquire(owner int, e interval.Extent, mode Mode, earliest sim.VTime) sim.VTime
	// release drops owner's lock on exactly e, records the virtual release
	// time in the range history, and grants newly eligible waiters.
	release(owner int, e interval.Extent, releaseAt sim.VTime) error
	// holders returns the number of currently granted locks.
	holders() int
	// waiters returns the number of blocked requests.
	waiters() int
	// relLatest reports the latest recorded virtual release times of
	// exclusive and shared locks over any byte of e (the observable state
	// of the release history).
	relLatest(e interval.Extent) (excl, shared sim.VTime)
	// setCoord routes blocking and waking through a determinism
	// coordinator (see sim.Coord).
	setCoord(sim.Coord)
}

// newGrantTable picks the table implementation for a shard count: one shard
// keeps the single-mutex table, more partitions the byte range by offset
// stripe (stripe <= 0 selects DefaultShardStripe). The choice never changes
// virtual timing — only host-side data-structure and mutex granularity.
func newGrantTable(shards int, stripe int64) grantTable {
	if shards <= 1 {
		return newTable()
	}
	if stripe <= 0 {
		stripe = DefaultShardStripe
	}
	return newShardedTable(shards, stripe)
}

// held is one granted lock.
type held struct {
	owner int
	ext   interval.Extent
	mode  Mode
}

// waiter tracks one blocked Lock call; minStart accumulates the virtual
// release times of the overlapping locks released while it waited. ticket
// (the request's original earliest-grant time) and seq (registration order)
// define the deterministic order in which freed ranges are handed out.
// blockers counts the granted locks blocking it, positive for as long as
// it is registered (see readyList).
type waiter struct {
	owner    int
	ext      interval.Extent
	mode     Mode
	minStart sim.VTime
	ticket   sim.VTime
	seq      int64
	blockers int
	h        index.Handle // the waiter's entry in table.waiting
	granted  bool
	grantAt  sim.VTime
}

// released accounts for the release at virtual time at of a lock (holder,
// held) overlapping w — stamped whether or not it blocked w — and reports
// whether it was w's last blocker. Runs once per overlapping waiter per
// release: it must not allocate.
//
//atomiovet:hotpath
func (w *waiter) released(holder int, held Mode, at sim.VTime) bool {
	w.minStart = max(w.minStart, at)
	if !blocks(holder, held, w.owner, w.mode) {
		return false
	}
	w.blockers--
	return w.blockers == 0
}

// table is the shared conflict-tracking core of both managers. Besides the
// currently granted locks it remembers, per byte range, the latest *virtual*
// release time of past exclusive and shared locks (the per-range analogue of
// sim.Resource's free time): a lock request serializes in virtual time after
// every conflicting lock ever released on its range, even when the releases
// happened long ago in real time.
//
// Granted locks and pending waiters are both kept in interval indexes
// (internal/interval/index), so a request touches only the locks and
// waiters that actually overlap it — O(log G + k) instead of a scan of all
// G granted locks — and a release visits only the waiters overlapping the
// freed range instead of rescanning the whole waiter list.
//
// Grant decisions are made by the releaser: release hands freed ranges to
// eligible waiters in (ticket, seq) order and stamps their grant times
// before any of them wakes, so the winner among competing waiters never
// depends on wake-up order.
type table struct {
	mu        sync.Mutex
	granted   index.Index[*held]   // granted locks by byte range
	waiting   index.Index[*waiter] // blocked requests by byte range
	ready     readyList[*waiter]   // release scratch
	nextSeq   int64
	coord     sim.Coord
	exclRel   releaseMap // release times of past exclusive locks
	sharedRel releaseMap // release times of past shared locks
}

func newTable() *table { return &table{coord: sim.Solo{}} }

// blockers counts the granted locks that block (owner, e, mode), visiting
// only those overlapping e. Runs once per request: it must not allocate.
//
//atomiovet:hotpath
func (t *table) blockers(owner int, e interval.Extent, mode Mode) int {
	n := 0
	t.granted.Overlapping(e, func(_ interval.Extent, _ index.Handle, h *held) bool {
		if blocks(h.owner, h.mode, owner, mode) {
			n++
		}
		return true
	})
	return n
}

// block charges a newly granted lock (owner, e, mode) to every waiter it
// blocks. Runs once per grant: it must not allocate.
//
//atomiovet:hotpath
func (t *table) block(owner int, e interval.Extent, mode Mode) {
	t.waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
		if blocks(owner, mode, w.owner, w.mode) {
			w.blockers++
		}
		return true
	})
}

// grantLocked registers (owner, e, mode) as granted and returns the grant
// time: the request's accumulated floor plus the virtual release times of
// past conflicting locks on the range. Callers hold t.mu.
func (t *table) grantLocked(owner int, e interval.Extent, mode Mode, floor sim.VTime) sim.VTime {
	t.granted.Insert(e, &held{owner: owner, ext: e, mode: mode})
	t.block(owner, e, mode)
	start := floor
	// Serialize in virtual time after past conflicting releases: always
	// after exclusive releases; after shared releases too when acquiring
	// exclusively.
	if at := t.exclRel.latest(e); at > start {
		start = at
	}
	if mode == Exclusive {
		if at := t.sharedRel.latest(e); at > start {
			start = at
		}
	}
	return start
}

// acquire blocks until (owner, e, mode) is grantable, then registers the
// lock. earliest is the virtual time before which the grant cannot happen
// (request arrival + service); the returned time additionally covers the
// virtual release times of all conflicting locks on the range, past and
// waited-out alike.
func (t *table) acquire(owner int, e interval.Extent, mode Mode, earliest sim.VTime) sim.VTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.blockers(owner, e, mode)
	if n == 0 {
		return t.grantLocked(owner, e, mode, earliest)
	}
	w := &waiter{
		owner: owner, ext: e, mode: mode,
		minStart: earliest, ticket: earliest, seq: t.nextSeq, blockers: n,
	}
	t.nextSeq++
	w.h = t.waiting.Insert(e, w)
	t.coord.Block(owner)
	for !w.granted {
		t.coord.Park(owner, &t.mu)
	}
	return w.grantAt
}

// release drops owner's lock on e, records the virtual release time in the
// range history, stamps overlapping waiters, and grants every waiter that
// became eligible — in (ticket, seq) order, so the hand-off is
// deterministic — before waking them. A release of a lock that is not held
// changes nothing.
func (t *table) release(owner int, e interval.Extent, releaseAt sim.VTime) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Find owner's earliest-registered lock on exactly e. The index visits
	// overlapping locks in (offset, insertion) order, so the match is the
	// same one the old linear scan found. Empty extents overlap nothing and
	// need the full walk.
	var target index.Handle
	found := false
	locate := func(ext interval.Extent, h index.Handle, hd *held) bool {
		if hd.owner == owner && hd.ext == e {
			target, found = h, true
			return false
		}
		return true
	}
	if e.Empty() {
		t.granted.All(locate)
	} else {
		t.granted.Overlapping(e, locate)
	}
	if !found {
		return fmt.Errorf("lock: owner %d does not hold %v", owner, e)
	}
	hd, _ := t.granted.Delete(e, target)
	if hd.mode == Exclusive {
		t.exclRel.record(e, releaseAt)
	} else {
		t.sharedRel.record(e, releaseAt)
	}
	// Only waiters overlapping the freed range can have lost a blocker;
	// those left with none are the grant candidates. Each grant is stamped
	// on the waiter and published to the coordinator before it can run.
	t.waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
		if w.released(hd.owner, hd.mode, releaseAt) {
			t.ready.push(w.ticket, w.seq, w)
		}
		return true
	})
	t.ready.handOff(func(w *waiter) bool { return w.blockers == 0 }, func(w *waiter) {
		t.waiting.Delete(w.ext, w.h)
		w.grantAt = t.grantLocked(w.owner, w.ext, w.mode, w.minStart)
		w.granted = true
		t.coord.Wake(w.owner, w.grantAt)
	})
	return nil
}

// holders returns the number of currently granted locks (for tests).
func (t *table) holders() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.granted.Len()
}

// waiters returns the number of blocked requests.
func (t *table) waiters() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting.Len()
}

// relLatest reports the release history over e.
func (t *table) relLatest(e interval.Extent) (excl, shared sim.VTime) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exclRel.latest(e), t.sharedRel.latest(e)
}

// setCoord routes the table's blocking and waking through a determinism
// coordinator.
func (t *table) setCoord(c sim.Coord) { t.coord = c }

var _ grantTable = (*table)(nil)
