package lock

import (
	"fmt"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// table is the conflict-tracking core of both managers: it registers
// granted locks, blocks conflicting requests, and hands freed ranges to
// waiters in deterministic (ticket, seq) order. Besides the currently
// granted locks it remembers, per byte range, the latest *virtual* release
// time of past exclusive and shared locks (the per-range analogue of
// sim.Resource's free time): a lock request serializes in virtual time after
// every conflicting lock ever released on its range, even when the releases
// happened long ago in real time. Granted locks are kept in an interval
// index (internal/interval/index), so a request touches only the locks that
// actually overlap it, up to the first that blocks it — O(log G + k). The
// engine runs one actor at a time, so the table needs no lock of its own.
//
// A blocked request queues behind one witness, the first granted lock found
// blocking it: each granted lock carries a (ticket, seq) min-heap, so every
// waiter is in exactly one queue, whose lock blocks it. A release can
// therefore unblock only its own queue's members; it pops them in
// table-wide (ticket, seq) order — each queues behind another lock still
// blocking it or is granted — and stamps grant times before any of them
// wakes, so the winner among competing waiters never depends on wake-up
// order.
type table struct {
	granted   index.Index[*held]
	waiting   index.Index[*waiter] // shared waiters only: see release
	exclRel   releaseMap           // release times of past exclusive locks
	sharedRel releaseMap           // release times of past shared locks
	coord     sim.Coord

	nextSeq int64 // waiter registration order
}

// held is one granted lock: its index handle and the waiters queued
// behind it.
type held struct {
	owner  int
	ext    interval.Extent
	mode   Mode
	handle index.Handle
	queue  waitQueue
}

// waiter is one blocked request. minStart accumulates the virtual release
// times of the overlapping shared locks released while it waited (see
// release); ticket (the request's original earliest-grant time) and seq
// (registration order) define the deterministic order in which freed ranges
// are handed out. grantAt is stamped by the releaser before it Wakes the
// owner. Only shared waiters are indexed (handle).
type waiter struct {
	owner    int
	ext      interval.Extent
	mode     Mode
	minStart sim.VTime
	ticket   sim.VTime
	seq      int64
	grantAt  sim.VTime
	handle   index.Handle
}

// blocks reports whether a granted lock (holder, held) keeps a request
// (owner, mode) waiting: a lock never conflicts with its owner's other
// locks, and two shared locks coexist.
func blocks(holder int, held Mode, owner int, mode Mode) bool {
	return holder != owner && (held == Exclusive || mode == Exclusive)
}

// newTable builds an empty table serving a single caller (sim.Solo).
func newTable() *table { return &table{coord: sim.Solo{}} }

// setCoord routes blocking and waking through a determinism coordinator
// (see sim.Coord).
func (t *table) setCoord(c sim.Coord) { t.coord = c }

// witness returns a granted lock that blocks (owner, e, mode), or nil when
// none does: the overlap walk stops at the first blocker. Runs once per
// request and once per queued waiter a release pops: it must not allocate
// (TestHandOffAllocationIndependentOfWaiters).
func (t *table) witness(owner int, e interval.Extent, mode Mode) *held {
	var found *held
	t.granted.Overlapping(e, func(_ interval.Extent, _ index.Handle, h *held) bool {
		if blocks(h.owner, h.mode, owner, mode) {
			found = h
			return false
		}
		return true
	})
	return found
}

// grant installs (owner, e, mode) and returns the lock and its grant time:
// the request's accumulated floor plus the virtual release times of past
// conflicting locks on the range — always after exclusive releases; after
// shared releases too when acquiring exclusively.
func (t *table) grant(owner int, e interval.Extent, mode Mode, floor sim.VTime) (*held, sim.VTime) {
	hd := &held{owner: owner, ext: e, mode: mode}
	hd.handle = t.granted.Insert(e, hd)
	start := max(floor, t.exclRel.latest(e))
	if mode == Exclusive {
		start = max(start, t.sharedRel.latest(e))
	}
	return hd, start
}

// acquire blocks until (owner, e, mode) is grantable, then registers the
// lock: grant immediately when conflict-free, otherwise queue a waiter
// behind one blocking lock and park until a releaser stamps the grant.
// earliest is the virtual time before which the grant cannot happen
// (request arrival + service); the returned time additionally covers the
// virtual release times of all conflicting locks on the range, past and
// waited-out alike.
func (t *table) acquire(owner int, e interval.Extent, mode Mode, earliest sim.VTime) sim.VTime {
	witness := t.witness(owner, e, mode)
	if witness == nil {
		_, g := t.grant(owner, e, mode, earliest)
		return g
	}
	t.nextSeq++
	w := &waiter{
		owner: owner, ext: e, mode: mode,
		minStart: earliest, ticket: earliest, seq: t.nextSeq,
	}
	if mode == Shared {
		w.handle = t.waiting.Insert(e, w)
	}
	witness.queue.push(w)
	t.coord.Park(owner)
	return w.grantAt
}

// release drops owner's lock on exactly e, records the virtual release time
// in the history, stamps the waiters that history misses, and hands the
// freed range to the lock's queued waiters — in (ticket, seq) order, so the
// hand-off is deterministic — before waking them. A release of a lock that
// is not held changes nothing.
func (t *table) release(owner int, e interval.Extent, releaseAt sim.VTime) error {
	target := t.locate(owner, e)
	if target == nil {
		return fmt.Errorf("lock: owner %d does not hold %v", owner, e)
	}
	t.granted.Delete(target.ext, target.handle)
	t.recordRelease(e, target.mode, releaseAt)
	// A waiter's grant time covers every overlapping release while it
	// waited. grant reads them back from the history, except a shared
	// release for a shared waiter: stamped here, the reason shared waiters
	// alone are indexed.
	if target.mode == Shared {
		t.waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
			w.minStart = max(w.minStart, releaseAt)
			return true
		})
	}

	// Only target's queue can hold waiters the release unblocks: every
	// other waiter's witness is still granted. Pop them in (ticket, seq)
	// order; each queues behind a lock that still blocks it — granted
	// earlier, or just now in this loop — or is the least unblocked waiter.
	q := target.queue
	for len(q.items) > 0 {
		w := q.pop()
		if witness := t.witness(w.owner, w.ext, w.mode); witness != nil {
			witness.queue.push(w)
			continue
		}
		if w.mode == Shared {
			t.waiting.Delete(w.ext, w.handle)
		}
		var g *held
		g, w.grantAt = t.grant(w.owner, w.ext, w.mode, w.minStart)
		t.coord.Wake(w.owner, w.grantAt)
		// Every member's extent contains the core and no member is g's
		// owner (an owner parks in acquire, so it had one waiter: w), so an
		// exclusive grant over the core blocks them all: the rest of the
		// queue moves behind it whole.
		if g.mode == Exclusive && g.ext.Overlaps(q.core) {
			g.queue, q = q, waitQueue{}
		}
	}
	return nil
}

// locate returns owner's earliest-registered lock on exactly e, or nil: the
// index visits overlapping locks in (offset, insertion) order. Empty
// extents overlap nothing: the index is walked whole.
func (t *table) locate(owner int, e interval.Extent) *held {
	var target *held
	locate := func(_ interval.Extent, _ index.Handle, h *held) bool {
		if h.owner == owner && h.ext == e {
			target = h
			return false
		}
		return true
	}
	if e.Empty() {
		t.granted.All(locate)
	} else {
		t.granted.Overlapping(e, locate)
	}
	return target
}

// recordRelease notes e's virtual release time in the range history of its
// mode.
func (t *table) recordRelease(e interval.Extent, mode Mode, releaseAt sim.VTime) {
	if mode == Exclusive {
		t.exclRel.record(e, releaseAt)
	} else {
		t.sharedRel.record(e, releaseAt)
	}
}
