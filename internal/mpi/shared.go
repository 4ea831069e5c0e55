package mpi

// sharedKey names one Shared call: the communicator's context (unique per
// communicator within a World, so a communicator and its Dup never
// collide) and that communicator's call sequence, which is identical on
// every rank precisely because Shared is collective.
type sharedKey struct {
	ctx, seq int
}

// sharedEntry is the memo slot of one Shared call.
type sharedEntry struct {
	arrived int // ranks that have looked the entry up
	done    bool
	val     any
}

// get returns the entry's value, running compute if no rank has yet. done
// is set only when compute returns, so a panicking compute panics on every
// rank with its own cause instead of handing the others a nil value.
func (e *sharedEntry) get(compute func() any) any {
	if !e.done {
		e.val = compute()
		e.done = true
	}
	return e.val
}

// Shared evaluates compute once for the whole communicator and returns its
// value on every rank. It is collective: every rank must call it, in the
// same order relative to the communicator's other Shared calls, passing a
// compute that is a pure function of data all ranks hold identically (an
// allgathered payload, say) — whichever rank arrives first runs its own
// closure and the others never run theirs.
//
// Shared is a host-side device, not a modelled operation. On a real machine
// every process would evaluate compute locally; the simulator runs it once
// because P identical evaluations cost P times the host time and change
// nothing. It sends no messages, advances no clock and emits no event, so
// virtual results are exactly those of per-rank evaluation.
//
// The returned value is the same one on every rank and must be treated as
// read-only by all of them.
func (c *Comm) Shared(compute func() any) any {
	w := c.world
	key := sharedKey{ctx: c.ctx, seq: c.sharedSeq}
	c.sharedSeq++

	e := w.shared[key]
	if e == nil {
		e = &sharedEntry{}
		w.shared[key] = e
	}
	e.arrived++
	if e.arrived == len(c.group) {
		// Every rank now holds e; the table need not.
		delete(w.shared, key)
	}

	return e.get(compute)
}
