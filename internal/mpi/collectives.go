package mpi

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
//	Allgather  ring, P-1 steps (allgatherv too)     (solved at a rendezvous)
//	Alltoall   pairwise exchange, P-1 steps         (solved at a rendezvous)
//
// Barrier, Allgather and Alltoall keep that schedule — message counts,
// sizes, clocks, trace events — but simulate no message: the ranks meet
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
	defer c.beginOp("barrier")()
	c.meet(nil, nil, func(rv *rendezvous) {
		for dist := 1; dist < c.Size(); dist *= 2 {
			rv.step(c, dist, 0)
		}
	})
}

// bcast distributes root's data to every rank along a binomial tree and
// returns it. Non-root ranks pass nil (any value they pass is ignored).
func (c *Comm) bcast(data []byte, root int) []byte {
	defer c.beginOp("bcast")()
	c.checkRank(root)
	tag := c.nextTag()
	p := c.Size()
	if p == 1 {
		return data
	}
	vrank := (c.rank - root + p) % p

	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (c.rank - mask + p) % p
			data = c.recv(src, tag)
			break
		}
		mask *= 2
	}
	mask /= 2
	for mask > 0 {
		if vrank+mask < p {
			dst := (c.rank + mask) % p
			c.send(dst, tag, data)
		}
		mask /= 2
	}
	return data
}

// Allgather collects every rank's data on every rank, indexed by rank, timed
// as the ring algorithm: in step s each rank forwards the block that
// originated at rank-s to its right neighbour. Payload sizes may differ
// between ranks, so this also serves as MPI_Allgatherv.
//
// The result is read-only and shared: each rank copies its own contribution
// once into the one table assembled at the rendezvous, and every rank
// returns that same table. The caller may reuse data.
func (c *Comm) Allgather(data []byte) [][]byte {
	defer c.beginOp("allgather")()
	return c.meet(append([]byte(nil), data...), nil, func(rv *rendezvous) {
		for s := 0; s < c.Size()-1; s++ {
			rv.step(c, 1, s)
		}
	}).blocks
}

// Part is one message of an Alltoall: Size modelled bytes between the
// calling rank and rank Peer — the receiver of a part handed to Alltoall,
// the sender of one it returns. Data rides along by reference and may be
// anything, or nil when only the timing matters; it is never copied, and
// its size is never read, so Size alone prices the message.
type Part struct {
	Peer int
	Size int64
	Data any
}

// Alltoall sends each part to its Peer and returns the parts sent to this
// rank, in ascending sender order, timed as the pairwise exchange: in step
// s = 1..P-1 each rank sends its part for rank+s and receives the one from
// rank-s. The form is sparse — parts name distinct peers in ascending
// order, and a peer without a part is sent an empty message — so a rank
// that routes to few peers costs O(parts), not P, in host memory. A part
// for the caller itself is delivered untimed.
//
// Data is shared, not copied: a receiver reads the sender's very value, so
// neither side may write what it points at until both are done with it —
// in practice until a later synchronizing collective. The returned slice
// is read-only.
func (c *Comm) Alltoall(parts []Part) []Part {
	defer c.beginOp("alltoall")()
	for i, pt := range parts {
		c.checkRank(pt.Peer)
		if i > 0 && pt.Peer <= parts[i-1].Peer {
			panic("mpi: Alltoall parts must name distinct peers in ascending order")
		}
	}
	rv := c.meet(nil, parts, func(rv *rendezvous) { rv.exchange(c) })
	return rv.inbox[rv.starts[c.rank]:rv.starts[c.rank+1]]
}
