package mpi

import "atomio/internal/sim"

// rendezvous is the meeting point of one synchronizing collective call,
// held in World.meetings under the call's (context, tag) until its
// last rank arrives. Every rank deposits its entry clock and its block; the
// last one solves the collective's message schedule as arithmetic (step)
// and wakes the others at their exit clocks.
type rendezvous struct {
	arrived int
	clock   []sim.VTime // by communicator rank: entry clocks, then exit clocks
	blocks  [][]byte    // by communicator rank; all empty for a barrier
	next    []sim.VTime // the solver's second clock buffer
	cost    []sim.VTime // transfer cost of a message carrying blocks[i]
}

// meet takes the calling rank through the rendezvous of the next collective
// call: deposit, then sleep until the last arriver has run solve — or, as
// the last arriver, run it and wake every peer — and advance to the exit
// clock solve left in rv.clock. Ranks arrive as admitted actions at their
// entry clocks, so which rank solves is the same on every engine.
func (c *Comm) meet(block []byte, solve func(rv *rendezvous)) *rendezvous {
	w, p, me := c.world, len(c.group), c.group[c.rank]
	key := sharedKey{ctx: c.ctx, seq: c.nextTag()}
	coord := w.cfg.Coord
	coord.Await(me, c.clock.Now())
	if w.aborted {
		panic(abortError{})
	}
	rv := w.meetings[key]
	if rv == nil {
		rv = &rendezvous{clock: make([]sim.VTime, p), blocks: make([][]byte, p)}
		w.meetings[key] = rv
	}
	rv.clock[c.rank], rv.blocks[c.rank] = c.clock.Now(), block
	if rv.arrived++; rv.arrived < p {
		w.parked[me] = true
		coord.Park(me)
		if w.aborted {
			panic(abortError{})
		}
	} else {
		delete(w.meetings, key)
		rv.next, rv.cost = make([]sim.VTime, p), make([]sim.VTime, p)
		for i, b := range rv.blocks {
			rv.cost[i] = w.cfg.Net.Cost(int64(len(b)))
		}
		solve(rv)
		// Every sleeper appended its park event before this Wake appends
		// its wake (see obs.CoordTracer).
		for r, id := range c.group {
			if r != c.rank {
				w.parked[id] = false
				coord.Wake(id, rv.clock[r])
			}
		}
	}
	c.clock.AdvanceTo(rv.clock[c.rank])
	return rv
}

// step advances every clock through one round of a shift schedule, in which
// rank r sends block r-s to rank r+dist and receives block r-dist-s from
// rank r-dist (indices mod P), timed as sendOwned and applyRecvTiming would:
// a'[r] = max(a[r]+so, a[r-dist]+so+cost) + ro. Only with a recorder
// attached is anything more done per message: its two events and counts.
func (rv *rendezvous) step(c *Comm, dist, s int) {
	cfg := &c.world.cfg
	so, ro, o, p := cfg.SendOverhead, cfg.RecvOverhead, cfg.Obs, len(rv.clock)
	for r := range rv.next {
		from := r - dist // wrapped by hand: two divisions here double the loop
		if from < 0 {
			from += p
		}
		b := from - s
		if b < 0 {
			b += p
		}
		rv.next[r] = max(rv.clock[r], rv.clock[from]+rv.cost[b]) + so + ro
		if o != nil {
			c.traceSend(o, rv.clock[r]+so, r, (r+dist)%p, len(rv.blocks[(r-s+p)%p]))
			c.traceRecv(o, rv.next[r], r, from, len(rv.blocks[b]))
		}
	}
	rv.clock, rv.next = rv.next, rv.clock
}
