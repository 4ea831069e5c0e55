package mpi

// Collective operations. All of them are collective in the MPI sense: every
// rank of the communicator must call them in the same order. Each call uses
// a fresh internal tag drawn from a per-communicator sequence, which is
// identical on all ranks precisely because the calls are collective, so
// successive collectives can never match each other's traffic.
//
// The algorithms are the classic ones, chosen so the number and size of
// messages — and therefore the virtual-time cost of a handshake — track what
// production MPI libraries do:
//
//	Barrier    dissemination, ceil(log2 P) rounds
//	Bcast      binomial tree
//	Gather     binomial tree (variable-size payloads carried in bundles)
//	Allgather  ring, P-1 steps (handles variable sizes, i.e. allgatherv)
//	Reduce     binomial tree
//	Allreduce  reduce + broadcast
//	Scatter    root-directed sends
//	Alltoall   pairwise exchange, P-1 steps
//	Scan       linear chain

// nextInternalTag returns the tag for the next collective call.
func (c *Comm) nextInternalTag() int {
	t := c.internalSeq
	c.internalSeq++
	return t
}

// Barrier blocks until every rank of the communicator has entered it.
// It uses the dissemination algorithm: in round k each rank signals
// rank+2^k (mod P) and waits for a signal from rank-2^k (mod P).
func (c *Comm) Barrier() {
	defer c.beginOp("barrier")()
	tag := c.nextInternalTag()
	p := c.Size()
	if p == 1 {
		return
	}
	ctx := c.internalCtx()
	for dist := 1; dist < p; dist *= 2 {
		to := (c.rank + dist) % p
		from := (c.rank - dist + p) % p
		c.send(ctx, to, tag, nil)
		c.recv(ctx, from, tag)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns it. Non-root ranks pass nil (any value they pass is ignored).
func (c *Comm) Bcast(data []byte, root int) []byte {
	defer c.beginOp("bcast")()
	c.checkRank(root)
	tag := c.nextInternalTag()
	p := c.Size()
	if p == 1 {
		return data
	}
	ctx := c.internalCtx()
	vrank := (c.rank - root + p) % p

	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := c.rank - mask
			if src < 0 {
				src += p
			}
			data, _ = c.recv(ctx, src, tag)
			break
		}
		mask *= 2
	}
	mask /= 2
	for mask > 0 {
		if vrank+mask < p {
			dst := c.rank + mask
			if dst >= p {
				dst -= p
			}
			c.send(ctx, dst, tag, data)
		}
		mask /= 2
	}
	return data
}

// Gather collects every rank's data at root along a binomial tree. At root
// it returns a slice indexed by rank; elsewhere it returns nil. Payload
// sizes may differ between ranks (MPI_Gatherv behaviour).
func (c *Comm) Gather(data []byte, root int) [][]byte {
	defer c.beginOp("gather")()
	c.checkRank(root)
	tag := c.nextInternalTag()
	p := c.Size()
	ctx := c.internalCtx()
	vrank := (c.rank - root + p) % p

	// Accumulate (origin rank, payload) pairs from my binomial subtree.
	acc := map[int][]byte{c.rank: data}
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			// Send my accumulated subtree to my parent and stop.
			dst := c.rank - mask
			if dst < 0 {
				dst += p
			}
			c.send(ctx, dst, tag, encodeBundle(acc))
			return nil
		}
		if vrank+mask < p {
			src := c.rank + mask
			if src >= p {
				src -= p
			}
			b, _ := c.recv(ctx, src, tag)
			for r, d := range decodeBundle(b) {
				acc[r] = d
			}
		}
		mask *= 2
	}
	out := make([][]byte, p)
	for r, d := range acc {
		out[r] = d
	}
	return out
}

// Allgather collects every rank's data on every rank, indexed by rank, using
// the ring algorithm. Payload sizes may differ between ranks, so this also
// serves as MPI_Allgatherv.
//
// The returned blocks are read-only: each rank copies its own contribution
// once and the ring forwards that one buffer from hand to hand, so out[r]
// is the same memory on every rank (P copies per collective instead of the
// P² of copying at every hop). The caller may reuse data.
func (c *Comm) Allgather(data []byte) [][]byte {
	defer c.beginOp("allgather")()
	tag := c.nextInternalTag()
	p := c.Size()
	out := make([][]byte, p)
	out[c.rank] = append([]byte(nil), data...)
	if p == 1 {
		return out
	}
	ctx := c.internalCtx()
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	// In step s we forward the block that originated at rank-s: our own
	// private copy first, then blocks received from the left, none of
	// which is ever written again.
	for s := 0; s < p-1; s++ {
		sendIdx := (c.rank - s + p) % p
		c.sendOwned(ctx, right, tag, out[sendIdx])
		b, _ := c.recv(ctx, left, tag)
		recvIdx := (c.rank - s - 1 + p) % p
		out[recvIdx] = b
	}
	return out
}

// ReduceOp combines src into dst elementwise; both slices have equal length.
type ReduceOp func(dst, src []byte)

// Reduce combines every rank's equal-length data with op along a binomial
// tree rooted at root. At root it returns the reduction; elsewhere nil.
func (c *Comm) Reduce(data []byte, op ReduceOp, root int) []byte {
	defer c.beginOp("reduce")()
	c.checkRank(root)
	tag := c.nextInternalTag()
	p := c.Size()
	ctx := c.internalCtx()
	vrank := (c.rank - root + p) % p

	acc := append([]byte(nil), data...)
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			dst := c.rank - mask
			if dst < 0 {
				dst += p
			}
			c.send(ctx, dst, tag, acc)
			return nil
		}
		if vrank+mask < p {
			src := c.rank + mask
			if src >= p {
				src -= p
			}
			b, _ := c.recv(ctx, src, tag)
			if len(b) != len(acc) {
				panic("mpi: Reduce length mismatch between ranks")
			}
			op(acc, b)
		}
		mask *= 2
	}
	return acc
}

// Allreduce combines every rank's equal-length data with op and returns the
// result on every rank (reduce to rank 0 followed by broadcast).
func (c *Comm) Allreduce(data []byte, op ReduceOp) []byte {
	defer c.beginOp("allreduce")()
	red := c.Reduce(data, op, 0)
	return c.Bcast(red, 0)
}

// Scatter distributes parts[i] from root to rank i and returns the caller's
// part. Only root's parts argument is consulted; it must have one entry per
// rank.
func (c *Comm) Scatter(parts [][]byte, root int) []byte {
	defer c.beginOp("scatter")()
	c.checkRank(root)
	tag := c.nextInternalTag()
	p := c.Size()
	ctx := c.internalCtx()
	if c.rank == root {
		if len(parts) != p {
			panic("mpi: Scatter needs one part per rank")
		}
		for r := 0; r < p; r++ {
			if r != root {
				c.send(ctx, r, tag, parts[r])
			}
		}
		return append([]byte(nil), parts[root]...)
	}
	b, _ := c.recv(ctx, root, tag)
	return b
}

// Alltoall sends parts[i] to rank i and returns the slice of payloads
// received, indexed by source rank, using pairwise exchange.
//
// The parts are surrendered — handed to their receivers as-is, never to be
// written again — and out[r] is read-only; only out[rank] is a private copy.
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	defer c.beginOp("alltoall")()
	tag := c.nextInternalTag()
	p := c.Size()
	if len(parts) != p {
		panic("mpi: Alltoall needs one part per rank")
	}
	ctx := c.internalCtx()
	out := make([][]byte, p)
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	for s := 1; s < p; s++ {
		to := (c.rank + s) % p
		from := (c.rank - s + p) % p
		c.sendOwned(ctx, to, tag, parts[to])
		b, _ := c.recv(ctx, from, tag)
		out[from] = b
	}
	return out
}

// Scan computes the inclusive prefix reduction over ranks 0..r for each rank
// r, using a linear chain.
func (c *Comm) Scan(data []byte, op ReduceOp) []byte {
	defer c.beginOp("scan")()
	tag := c.nextInternalTag()
	ctx := c.internalCtx()
	acc := append([]byte(nil), data...)
	if c.rank > 0 {
		b, _ := c.recv(ctx, c.rank-1, tag)
		if len(b) != len(acc) {
			panic("mpi: Scan length mismatch between ranks")
		}
		prev := append([]byte(nil), b...)
		op(prev, acc)
		acc = prev
	}
	if c.rank < c.Size()-1 {
		c.send(ctx, c.rank+1, tag, acc)
	}
	return acc
}
