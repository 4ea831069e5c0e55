package mpi

import (
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// send delivers a copy of data to rank `to` under the given tag, on this
// communicator's context. It is buffered (eager): it never blocks waiting
// for the matching receive, which mirrors MPI's behaviour for the small
// handshake messages this repository exchanges, and lets every rank of a
// pairwise exchange send before it receives. The caller may reuse data.
func (c *Comm) send(to, tag int, data []byte) {
	c.sendOwned(to, tag, append([]byte(nil), data...))
}

// sendOwned is send without the copy: data is handed to the receiver as-is,
// so the caller must never write to it again. Collectives use it for
// buffers they own outright (a private copy, or a block received from
// another rank and merely forwarded). The send is an admitted action at the
// sender's post-overhead clock, so deliveries into every mailbox happen in
// deterministic virtual-time order. The virtual cost of a message depends
// only on len(data).
func (c *Comm) sendOwned(to, tag int, data []byte) {
	c.checkRank(to)
	c.clock.Advance(c.world.cfg.SendOverhead)
	c.world.cfg.Coord.Await(c.group[c.rank], c.clock.Now())
	if o := c.world.cfg.Obs; o != nil {
		c.traceSend(o, c.clock.Now(), c.rank, to, int64(len(data)))
	}
	c.world.mailboxes[c.group[to]].put(&message{
		ctx:    c.ctx,
		src:    c.rank,
		tag:    tag,
		data:   data,
		sentAt: c.clock.Now(),
	})
}

// recv blocks until the message from rank `from` with the given tag arrives
// on this communicator's context, and returns its payload. The receiver's
// virtual clock advances to max(local, sentAt + transfer cost) + receive
// overhead.
func (c *Comm) recv(from, tag int) []byte {
	msg := c.world.mailboxes[c.group[c.rank]].match(c.ctx, from, tag)
	c.clock.AdvanceTo(msg.sentAt + c.world.cfg.Net.Cost(int64(len(msg.data))))
	c.clock.Advance(c.world.cfg.RecvOverhead)
	if o := c.world.cfg.Obs; o != nil {
		c.traceRecv(o, c.clock.Now(), c.rank, msg.src, int64(len(msg.data)))
	}
	return msg.data
}

// traceSend emits the event of rank from handing size bytes for rank to to
// the network at t. from is the caller, or any rank of a collective the
// caller is solving at a rendezvous.
func (c *Comm) traceSend(o *obs.Recorder, t sim.VTime, from, to int, size int64) {
	o.Emit(obs.Event{T: t, Actor: c.group[from], Layer: obs.LayerMPI, Kind: obs.KindSend,
		Tag: c.curOp, Peer: c.group[to], Size: size})
}

// traceRecv emits the delivery event of those bytes, timing applied, at
// rank to (the one side message counters hang off).
func (c *Comm) traceRecv(o *obs.Recorder, t sim.VTime, to, from int, size int64) {
	me := c.group[to]
	o.Emit(obs.Event{T: t, Actor: me, Layer: obs.LayerMPI, Kind: obs.KindRecv,
		Tag: c.curOp, Peer: c.group[from], Size: size})
	o.Count(me, obs.MetricMsgs, 1)
	o.Count(me, obs.MetricMsgBytes, size)
	o.Count(me, obs.MetricMsgsPrefix+c.curOp, 1)
}
