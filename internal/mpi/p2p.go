package mpi

// send delivers data to rank `to` under the given tag, on this
// communicator's context. It is buffered (eager): it never blocks waiting
// for the matching receive, which mirrors MPI's behaviour for the small
// handshake messages this repository exchanges, and lets every rank of a
// pairwise exchange send before it receives. data is lent, not copied: the
// receiver gets the same slice, so neither side may write it afterwards.
// The send is an admitted action at the sender's post-overhead clock, so
// deliveries into every mailbox happen in deterministic virtual-time
// order. The virtual cost of a message depends only on len(data).
func (c *Comm) send(to, tag int, data []byte) {
	c.checkRank(to)
	c.clock.Advance(c.world.cfg.SendOverhead)
	c.world.cfg.Coord.Await(c.group[c.rank], c.clock.Now())
	c.world.mailboxes[c.group[to]].put(message{
		ctx:    c.ctx,
		src:    c.rank,
		tag:    tag,
		data:   data,
		sentAt: c.clock.Now(),
	})
}

// recv blocks until the message from rank `from` with the given tag arrives
// on this communicator's context, and returns it: its payload and the
// instant it was sent. The receiver's virtual clock advances to max(local,
// sentAt + transfer cost) + receive overhead.
func (c *Comm) recv(from, tag int) message {
	msg := c.world.mailboxes[c.group[c.rank]].match(c.ctx, from, tag)
	c.clock.AdvanceTo(msg.sentAt + c.world.cfg.Net.Cost(int64(len(msg.data))))
	c.clock.Advance(c.world.cfg.RecvOverhead)
	return msg
}
