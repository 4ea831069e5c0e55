package mpi

import (
	"slices"

	"atomio/internal/sim"
)

// rendezvous is the meeting point of one synchronizing collective call,
// held in World.meetings under the call's (context, tag) until its
// last rank arrives. Every rank deposits its entry clock and its block or
// its alltoall parts; the last one solves the collective's message schedule
// as arithmetic (step) and wakes the others at their exit clocks.
type rendezvous struct {
	arrived int
	clock   []sim.VTime // by communicator rank: entry clocks, then exit clocks
	blocks  [][]byte    // by communicator rank; all empty for a barrier or an alltoall
	parts   [][]Part    // by communicator rank: an alltoall's parts; nil while none has any
	next    []sim.VTime // the solver's second clock buffer
	cost    []sim.VTime // transfer cost of a message carrying blocks[i] (an alltoall's: see exchange)
	size    []int64     // an alltoall's message sizes, indexed as cost; nil for the others

	// An alltoall's deliveries: receiver q's parts are inbox[starts[q]:starts[q+1]].
	inbox  []Part
	starts []int
}

// meet takes the calling rank through the rendezvous of the next collective
// call: deposit, then sleep until the last arriver has run solve — or, as
// the last arriver, run it and wake every peer — and advance to the exit
// clock solve left in rv.clock. Ranks arrive as admitted actions at their
// entry clocks, so which rank solves is the same on every engine.
func (c *Comm) meet(block []byte, parts []Part, solve func(rv *rendezvous)) *rendezvous {
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
	if len(parts) > 0 {
		if rv.parts == nil {
			rv.parts = make([][]Part, p)
		}
		rv.parts[c.rank] = parts
	}
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
// rank r-dist (indices mod P), timed as sendOwned and recv would:
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
			c.traceSend(o, rv.clock[r]+so, r, (r+dist)%p, rv.sizeOf((r-s+p)%p))
			c.traceRecv(o, rv.next[r], r, from, rv.sizeOf(b))
		}
	}
	rv.clock, rv.next = rv.next, rv.clock
}

// sizeOf is the size of a message carrying block i, which step prices as
// cost[i].
func (rv *rendezvous) sizeOf(i int) int64 {
	if rv.size != nil {
		return rv.size[i]
	}
	return int64(len(rv.blocks[i]))
}

// exchange runs an alltoall's pairwise schedule: in round s = 1..P-1 rank r
// sends its part for rank r+s and receives the part of rank r-s, a missing
// part being an empty message, the price meet gave every sender. The parts
// are bucketed by round first, so a round costs step plus its own parts and
// the schedule O(P + parts) memory; then they are delivered.
func (rv *rendezvous) exchange(c *Comm) {
	p, net := len(rv.clock), c.world.cfg.Net
	empty := net.Cost(0)
	rv.size = make([]int64, p)
	sends, round := rv.bucket(p, func(from int, pt Part) int { return (pt.Peer - from + p) % p })
	for s := 1; s < p; s++ {
		now := sends[round[s]:round[s+1]] // Peer names the sender
		for _, pt := range now {
			rv.size[pt.Peer], rv.cost[pt.Peer] = pt.Size, net.Cost(pt.Size)
		}
		rv.step(c, s, 0)
		for _, pt := range now {
			rv.size[pt.Peer], rv.cost[pt.Peer] = 0, empty
		}
	}
	rv.inbox, rv.starts = rv.bucket(p, func(_ int, pt Part) int { return pt.Peer })
}

// bucket sorts the deposited parts by key into n buckets, in ascending
// sender order within each, with Peer rewritten to name the sender: bucket
// k is out[starts[k]:starts[k+1]].
func (rv *rendezvous) bucket(n int, key func(from int, pt Part) int) (out []Part, starts []int) {
	starts = make([]int, n+1)
	for from, parts := range rv.parts {
		for _, pt := range parts {
			starts[key(from, pt)+1]++
		}
	}
	for k := range n {
		starts[k+1] += starts[k]
	}
	out, fill := make([]Part, starts[n]), slices.Clone(starts[:n])
	for from, parts := range rv.parts {
		for _, pt := range parts {
			k := key(from, pt)
			out[fill[k]] = Part{Peer: from, Size: pt.Size, Data: pt.Data}
			fill[k]++
		}
	}
	return out, starts
}
