package lock

import (
	"cmp"
	"slices"

	"atomio/internal/sim"
)

// blocks reports whether a granted lock (holder, held) keeps a request
// (owner, mode) waiting: a lock never conflicts with its owner's other
// locks, and two shared locks coexist.
func blocks(holder int, held Mode, owner int, mode Mode) bool {
	return holder != owner && (held == Exclusive || mode == Exclusive)
}

// readyList is the scratch list a release hands freed ranges out of. The
// table keeps, per waiter, a count of the granted locks blocking it —
// raised when such a lock is granted, lowered when one is released — so
// between operations every registered waiter's count is positive, and a
// release pushes here the waiters it brings to zero: it can grant no
// others, because granting only adds locks. The backing array is kept
// across releases.
type readyList struct {
	items []readyItem
}

// readyItem is one grant candidate, its ordering key copied beside it so
// that selecting the minimum scans contiguous memory.
type readyItem struct {
	ticket sim.VTime
	seq    int64
	w      *waiter
}

// compare is the (ticket, seq) grant order.
func (a readyItem) compare(b readyItem) int {
	return cmp.Or(cmp.Compare(a.ticket, b.ticket), cmp.Compare(a.seq, b.seq))
}

func (r *readyList) push(w *waiter) {
	r.items = append(r.items, readyItem{ticket: w.ticket, seq: w.seq, w: w})
}

// handOff empties the list, granting in (ticket, seq) order every pushed
// waiter that is still unblocked at its turn: grant registers a waiter's
// lock, which blocks the waiters it conflicts with, listed ones included.
// The minimum goes first and only what it leaves ready is sorted: when all m
// waiters overlap (the paper's column-wise spans) every release readies
// them all and the first grant blocks them all again, so the hand-off is
// one O(m) scan and no sort; a wake-up of compatible waiters sorts once.
// It must not allocate.
//
//atomiovet:hotpath
func (r *readyList) handOff(grant func(*waiter)) {
	items := r.items
	r.items = items[:0]
	if len(items) == 0 {
		return
	}
	first := 0
	for i := range items {
		if items[i].compare(items[first]) < 0 {
			first = i
		}
	}
	grant(items[first].w)
	items[first] = items[len(items)-1]
	n := 0
	for _, it := range items[:len(items)-1] {
		if it.w.blockers.Load() == 0 {
			items[n] = it
			n++
		}
	}
	slices.SortFunc(items[:n], readyItem.compare)
	for _, it := range items[:n] {
		if it.w.blockers.Load() == 0 {
			grant(it.w)
		}
	}
}
