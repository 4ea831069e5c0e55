package mpi

import (
	"math/bits"
	"slices"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

// callKey names one synchronizing collective call: the communicator's
// context (unique per communicator within a World, so a communicator and its
// Dup never collide) and that communicator's call sequence, its tag, which is
// identical on every rank precisely because the call is collective.
type callKey struct {
	ctx, seq int
}

// rendezvous is the meeting point of one synchronizing collective call,
// held in World.meetings under its callKey until its last rank arrives.
// Every rank deposits its entry clock and the size of its block, and an
// allgather's block or an alltoall's parts; the last one solves the
// collective's message schedule as arithmetic (step) and wakes the others
// at their exit clocks.
type rendezvous struct {
	arrived int
	clock   []sim.VTime // by communicator rank: entry clocks, then exit clocks
	size    []int64     // by communicator rank: the size of a message carrying block i (0 in an alltoall)
	total   int64       // the sum of size
	cost    []sim.VTime // transfer cost of a message of size[i] (an alltoall's: see exchange)
	next    []sim.VTime // the solver's second clock buffer
	table   any         // an allgather's []T of blocks, by communicator rank; nil for the others
	derived any         // what an allgather's derive made of the whole table
	parts   [][]Part    // by communicator rank: an alltoall's parts; nil while none has any

	// An alltoall's deliveries: receiver q's parts are inbox[starts[q]:starts[q+1]].
	inbox  []Part
	starts []int
}

// collKind names a synchronizing collective: the Tag of its mpi.coll
// events and its counter of messages, spelled out so that tracing a call
// builds no string.
type collKind struct{ tag, msgs string }

var (
	barrierKind   = collKind{"barrier", obs.MetricMsgsPrefix + "barrier"}
	allgatherKind = collKind{obs.TagAllgather, obs.MetricMsgsPrefix + obs.TagAllgather}
	alltoallKind  = collKind{"alltoall", obs.MetricMsgsPrefix + "alltoall"}
)

// meet takes the calling rank through the rendezvous of the next collective
// call of the given kind: deposit (its block priced at size bytes, then
// whatever deposit adds), then sleep until the last arriver has run solve —
// or, as the last arriver, run it and wake every peer — and advance to the
// exit clock solve left in rv.clock. Ranks arrive as admitted actions at
// their entry clocks, so which rank solves is the same on every engine.
func (c *Comm) meet(kind collKind, size int64, deposit func(rv *rendezvous), solve func(rv *rendezvous)) *rendezvous {
	w, p, me := c.world, len(c.group), c.group[c.rank]
	key := callKey{ctx: c.ctx, seq: c.nextTag()}
	coord, entry := w.cfg.Coord, c.clock.Now()
	coord.Await(me, entry)
	if w.aborted {
		panic(abortError{})
	}
	rv := w.meetings[key]
	if rv == nil {
		rv = &rendezvous{clock: make([]sim.VTime, p), size: make([]int64, p)}
		w.meetings[key] = rv
	}
	rv.clock[c.rank], rv.size[c.rank] = entry, size
	if deposit != nil {
		deposit(rv)
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
		for i, n := range rv.size {
			rv.cost[i] = w.cfg.Net.Cost(n)
			rv.total += n
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
	if o := w.cfg.Obs; o != nil {
		c.traceColl(o, kind, key, entry, rv)
	}
	return rv
}

// traceColl emits the calling rank's mpi.coll event, entry to exit, and
// counts the messages the schedule delivered to it in closed form: one per
// dissemination round in a barrier, one from every other rank in the ring
// and the pairwise exchange. Aux names the call, the same on every rank.
func (c *Comm) traceColl(o *obs.Recorder, kind collKind, key callKey, entry sim.VTime, rv *rendezvous) {
	me, p := c.group[c.rank], len(c.group)
	msgs := p - 1
	if kind == barrierKind {
		msgs = bits.Len(uint(p - 1))
	}
	bytes := rv.total - rv.size[c.rank] // every other rank's block, or an alltoall's parts from them
	if rv.starts != nil {
		for _, pt := range rv.inbox[rv.starts[c.rank]:rv.starts[c.rank+1]] {
			if pt.Peer != c.rank {
				bytes += pt.Size
			}
		}
	}
	o.Emit(obs.Event{T: entry, Dur: c.clock.Now() - entry, Actor: me, Layer: obs.LayerMPI, Kind: obs.KindColl,
		Tag: kind.tag, Peer: -1, Size: bytes, Aux: int64(key.ctx)<<32 | int64(key.seq)})
	if msgs > 0 {
		o.Count(me, obs.MetricMsgs, int64(msgs))
		o.Count(me, obs.MetricMsgBytes, bytes)
		o.Count(me, kind.msgs, int64(msgs))
	}
}

// step advances every clock through one round of a shift schedule, in which
// rank r sends block r-s to rank r+dist and receives block r-dist-s from
// rank r-dist (indices mod P), timed as send and recv would:
// a'[r] = max(a[r]+so, a[r-dist]+so+cost) + ro.
func (rv *rendezvous) step(c *Comm, dist, s int) {
	cfg := &c.world.cfg
	so, ro, p := cfg.SendOverhead, cfg.RecvOverhead, len(rv.clock)
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
	}
	rv.clock, rv.next = rv.next, rv.clock
}

// exchange runs an alltoall's pairwise schedule: in round s = 1..P-1 rank r
// sends its part for rank r+s and receives the part of rank r-s, a missing
// part being an empty message, the price meet gave every sender. The parts
// are bucketed by round first, so a round costs step plus its own parts and
// the schedule O(P + parts) memory; then they are delivered.
func (rv *rendezvous) exchange(c *Comm) {
	p, net := len(rv.clock), c.world.cfg.Net
	empty := net.Cost(0)
	sends, round := rv.bucket(p, func(from int, pt Part) int { return (pt.Peer - from + p) % p })
	for s := 1; s < p; s++ {
		now := sends[round[s]:round[s+1]] // Peer names the sender
		for _, pt := range now {
			rv.cost[pt.Peer] = net.Cost(pt.Size)
		}
		rv.step(c, s, 0)
		for _, pt := range now {
			rv.cost[pt.Peer] = empty
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
			out[fill[k]] = Part{Peer: from, Size: pt.Size}
			fill[k]++
		}
	}
	return out, starts
}
