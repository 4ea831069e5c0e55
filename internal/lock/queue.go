package lock

import "atomio/internal/interval"

// waitQueue is one granted-lock replica's queue: the waiters that lock
// witnesses, as a (ticket, seq) min-heap, and their common core — the
// intersection of the extents pushed since the queue was last empty, which
// every member's extent therefore contains.
type waitQueue struct {
	items []*waiter
	core  interval.Extent
}

// before is the (ticket, seq) grant order; seq is unique table-wide.
func (w *waiter) before(o *waiter) bool {
	return w.ticket < o.ticket || (w.ticket == o.ticket && w.seq < o.seq)
}

// push queues w. Its append reuses the backing array a whole-queue move
// carries from lock to lock.
func (q *waitQueue) push(w *waiter) {
	if len(q.items) == 0 {
		q.core = w.ext
	} else {
		q.core = q.core.Intersect(w.ext)
	}
	q.items = append(q.items, w)
	q.up(len(q.items) - 1)
}

// pop removes and returns the least member. The queue must not be empty.
// Like up and down, it runs per hand-off and must not allocate
// (TestHandOffAllocationIndependentOfWaiters).
func (q *waitQueue) pop() *waiter {
	n := len(q.items) - 1
	top := q.items[0]
	q.items[0] = q.items[n]
	q.items[n] = nil
	q.items = q.items[:n]
	q.down(0)
	return top
}

// up restores the heap order above item i.
func (q *waitQueue) up(i int) {
	items := q.items
	for i > 0 {
		p := (i - 1) / 2
		if !items[i].before(items[p]) {
			return
		}
		items[i], items[p] = items[p], items[i]
		i = p
	}
}

// down restores the heap order below item i.
func (q *waitQueue) down(i int) {
	items := q.items
	for {
		m := 2*i + 1
		if m >= len(items) {
			return
		}
		if r := m + 1; r < len(items) && items[r].before(items[m]) {
			m = r
		}
		if !items[m].before(items[i]) {
			return
		}
		items[i], items[m] = items[m], items[i]
		i = m
	}
}
