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
//	Alltoall   pairwise exchange, P-1 steps
//
// Barrier and Allgather keep that schedule — message counts, sizes, clocks,
// trace events — but simulate no message: the ranks meet (rendezvous.go) and
// the last to arrive runs the schedule as a recurrence over the P entry
// clocks. Only a synchronizing collective may: every rank's exit is at or
// after every rank's entry in virtual time, so parking the early arrivers
// never holds back an action virtual time would have admitted sooner.
// Alltoall qualifies and is message-based for now; bcast (a leaf may leave
// before a late rank enters) never does.

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
	c.meet(nil, func(rv *rendezvous) {
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
	return c.meet(append([]byte(nil), data...), func(rv *rendezvous) {
		for s := 0; s < c.Size()-1; s++ {
			rv.step(c, 1, s)
		}
	}).blocks
}

// Alltoall sends parts[i] to rank i and returns the slice of payloads
// received, indexed by source rank, using pairwise exchange.
//
// The parts are surrendered — handed to their receivers as-is, never to be
// written again — and out[r] is read-only; only out[rank] is a private copy.
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	defer c.beginOp("alltoall")()
	tag := c.nextTag()
	p := c.Size()
	if len(parts) != p {
		panic("mpi: Alltoall needs one part per rank")
	}
	out := make([][]byte, p)
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	for s := 1; s < p; s++ {
		to := (c.rank + s) % p
		from := (c.rank - s + p) % p
		c.sendOwned(to, tag, parts[to])
		out[from] = c.recv(from, tag)
	}
	return out
}
