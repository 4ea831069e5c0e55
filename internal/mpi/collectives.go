package mpi

import (
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// Collective operations. All of them are collective in the MPI sense: every
// rank of the communicator must call them in the same order. Each call uses
// a fresh tag drawn from a per-communicator sequence, which is
// identical on all ranks precisely because the calls are collective, so
// successive collectives can never match each other's traffic.
//
// The algorithms are the classic ones, chosen so the number and size of
// messages — and therefore the virtual-time cost of a handshake — track what
// production MPI libraries do:
//
//	Barrier    dissemination, ceil(log2 P) rounds   (solved at a rendezvous)
//	bcast      binomial tree (only Dup uses it)
//	AllgatherOf ring, P-1 steps (allgatherv too)    (solved at a rendezvous)
//	Alltoall   pairwise exchange, P-1 steps         (solved at a rendezvous)
//
// Barrier, AllgatherOf and Alltoall keep that schedule — message counts,
// sizes, clocks — but simulate no message: the ranks meet
// (rendezvous.go) and the last to arrive runs the schedule as a recurrence
// over the P entry clocks. Only a synchronizing collective may: every rank's
// exit is at or after every rank's entry in virtual time, so parking the
// early arrivers never holds back an action virtual time would have
// admitted sooner. bcast (a leaf may leave before a late rank enters) never
// does.

// nextTag returns the tag for the next collective call.
func (c *Comm) nextTag() int {
	t := c.tagSeq
	c.tagSeq++
	return t
}

// Barrier blocks until every rank of the communicator has entered it.
// It is timed as the dissemination algorithm: in round k each rank signals
// rank+2^k (mod P) and waits for a signal from rank-2^k (mod P).
func (c *Comm) Barrier() {
	c.meet(barrierKind, 0, nil, func(rv *rendezvous) {
		for dist := 1; dist < c.Size(); dist *= 2 {
			rv.step(c, dist, 0)
		}
	})
}

// bcast distributes root's data to every rank along a binomial tree and
// returns it, lent as send lends it. Non-root ranks pass nil (any value
// they pass is ignored). With a recorder attached, each message is traced
// as a send, over its overhead, and a recv, from its send to its delivery.
func (c *Comm) bcast(data []byte, root int) []byte {
	c.checkRank(root)
	tag := c.nextTag()
	p := c.Size()
	if p == 1 {
		return data
	}
	vrank, o := (c.rank-root+p)%p, c.world.cfg.Obs

	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (c.rank - mask + p) % p
			msg := c.recv(src, tag)
			if data = msg.data; o != nil {
				c.traceBcast(o, obs.KindRecv, src, data, msg.sentAt)
			}
			break
		}
		mask *= 2
	}
	mask /= 2
	for mask > 0 {
		if vrank+mask < p {
			dst, from := (c.rank+mask)%p, c.clock.Now()
			c.send(dst, tag, data)
			if o != nil {
				c.traceBcast(o, obs.KindSend, dst, data, from)
			}
		}
		mask /= 2
	}
	return data
}

// traceBcast emits the span of this rank sending data to peer, or
// receiving it from peer, from the instant from to now, and counts a
// received message.
func (c *Comm) traceBcast(o *obs.Recorder, kind string, peer int, data []byte, from sim.VTime) {
	me, size := c.group[c.rank], int64(len(data))
	o.Emit(obs.Event{T: from, Dur: c.clock.Now() - from, Actor: me, Layer: obs.LayerMPI, Kind: kind,
		Tag: "bcast", Peer: c.group[peer], Size: size})
	if kind == obs.KindRecv {
		o.Count(me, obs.MetricMsgs, 1)
		o.Count(me, obs.MetricMsgBytes, size)
		o.Count(me, obs.MetricMsgsPrefix+"bcast", 1)
	}
}

// AllgatherOf collects every rank's block on every rank, indexed by rank,
// timed as the ring algorithm: in step s each rank forwards the block that
// originated at rank-s to its right neighbour. A block is priced as a
// message of size bytes, which may differ between ranks, so this also
// serves as MPI_Allgatherv; its own size is never read.
//
// Blocks are shared, not copied, as Alltoall's parts are: each rank's block
// is placed by reference in the one table assembled at the rendezvous, and
// every rank returns that same table. The table is read-only, and no rank
// may write its block while any rank can still read the table.
//
// derive, unless nil, is what every rank would compute locally from the
// table, and must be a pure function of it, the same on every rank: the
// last rank to arrive evaluates its own once over the whole table, and
// every rank returns that one value, read-only as the table is (the zero D
// without derive). It is a host-side saving, not a modelled operation: P
// identical evaluations would cost P times the host time and change
// nothing, so derive sends no message, advances no clock and emits no event.
func AllgatherOf[T, D any](c *Comm, block T, size int64, derive func([]T) D) ([]T, D) {
	rv := c.meet(allgatherKind, size, func(rv *rendezvous) {
		if rv.table == nil {
			rv.table = make([]T, c.Size())
		}
		rv.table.([]T)[c.rank] = block
	}, func(rv *rendezvous) {
		for s := 0; s < c.Size()-1; s++ {
			rv.step(c, 1, s)
		}
		if derive != nil {
			rv.derived = derive(rv.table.([]T))
		}
	})
	d, _ := rv.derived.(D)
	return rv.table.([]T), d
}

// Allgather is AllgatherOf of a private copy of data, priced at its length.
// Kept only as the pin of atombench's mpi.allgather_ns_per_msg probe.
func (c *Comm) Allgather(data []byte) [][]byte {
	table, _ := AllgatherOf[[]byte, any](c, append([]byte(nil), data...), int64(len(data)), nil)
	return table
}

// Part is one message of an Alltoall: Size modelled bytes between the
// calling rank and rank Peer — the receiver of a part handed to Alltoall,
// the sender of one it returns. No content travels: a receiver that needs
// its senders' data reads it from a table they share.
type Part struct {
	Peer int
	Size int64
}

// Alltoall sends each part to its Peer and returns the parts sent to this
// rank, in ascending sender order, timed as the pairwise exchange: in step
// s = 1..P-1 each rank sends its part for rank+s and receives the one from
// rank-s. The form is sparse — parts name distinct peers in ascending
// order, and a peer without a part is sent an empty message — so a rank
// that routes to few peers costs O(parts), not P, in host memory. A part
// for the caller itself is delivered untimed. The returned slice is
// read-only.
func (c *Comm) Alltoall(parts []Part) []Part {
	for i, pt := range parts {
		c.checkRank(pt.Peer)
		if i > 0 && pt.Peer <= parts[i-1].Peer {
			panic("mpi: Alltoall parts must name distinct peers in ascending order")
		}
	}
	rv := c.meet(alltoallKind, 0, func(rv *rendezvous) {
		if len(parts) > 0 {
			if rv.parts == nil {
				rv.parts = make([][]Part, c.Size())
			}
			rv.parts[c.rank] = parts
		}
	}, func(rv *rendezvous) { rv.exchange(c) })
	return rv.inbox[rv.starts[c.rank]:rv.starts[c.rank+1]]
}
