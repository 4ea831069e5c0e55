package mpi

import (
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// Status describes a received message.
type Status struct {
	// Source is the sender's rank within the communicator.
	Source int
	// Tag is the message tag.
	Tag int
	// Len is the payload length in bytes.
	Len int
}

// Send delivers data to rank `to` with the given non-negative tag. Send is
// buffered (eager): it never blocks waiting for the matching receive, which
// mirrors MPI's behaviour for the small handshake messages this repository
// exchanges. The payload is copied, so the caller may reuse data.
func (c *Comm) Send(to, tag int, data []byte) {
	c.checkTag(tag)
	c.send(c.ctx, to, tag, data)
}

// send is the context-explicit core used by both user sends and internal
// collective traffic. It copies the payload, so the caller may reuse data.
func (c *Comm) send(ctx, to, tag int, data []byte) {
	c.sendOwned(ctx, to, tag, append([]byte(nil), data...))
}

// sendOwned is send without the copy: data is handed to the receiver as-is,
// so the caller must never write to it again. Collectives use it for
// buffers they own outright (a private copy, or a block received from
// another rank and merely forwarded). The send is an admitted action at the
// sender's post-overhead clock, so deliveries into every mailbox happen in
// deterministic virtual-time order. The virtual cost of a message depends
// only on len(data).
func (c *Comm) sendOwned(ctx, to, tag int, data []byte) {
	c.checkRank(to)
	c.clock.Advance(c.world.cfg.SendOverhead)
	c.world.cfg.Coord.Await(c.group[c.rank], c.clock.Now())
	if o := c.world.cfg.Obs; o != nil {
		c.traceSend(o, c.clock.Now(), c.rank, to, len(data))
	}
	c.world.mailboxes[c.group[to]].put(&message{
		ctx:    ctx,
		src:    c.rank,
		tag:    tag,
		data:   data,
		sentAt: c.clock.Now(),
	})
}

// Recv blocks until a message with the given source and non-negative tag
// (or the AnySource / AnyTag wildcards) arrives, and returns its payload.
// The receiver's virtual clock advances to
// max(local, sentAt + transfer cost) + receive overhead.
func (c *Comm) Recv(from, tag int) ([]byte, Status) {
	if from != AnySource {
		c.checkRank(from)
	}
	if tag != AnyTag {
		c.checkTag(tag)
	}
	return c.recv(c.ctx, from, tag)
}

func (c *Comm) recv(ctx, from, tag int) ([]byte, Status) {
	msg := c.world.mailboxes[c.group[c.rank]].match(ctx, from, tag)
	c.applyRecvTiming(msg)
	return msg.data, Status{Source: msg.src, Tag: msg.tag, Len: len(msg.data)}
}

// applyRecvTiming advances the receiver's clock for a matched message and
// traces the delivery.
func (c *Comm) applyRecvTiming(msg *message) {
	arrive := msg.sentAt + c.world.cfg.Net.Cost(int64(len(msg.data)))
	c.clock.AdvanceTo(arrive)
	c.clock.Advance(c.world.cfg.RecvOverhead)
	if o := c.world.cfg.Obs; o != nil {
		c.traceRecv(o, c.clock.Now(), c.rank, msg.src, len(msg.data))
	}
}

// traceSend emits the event of rank from handing size bytes for rank to to
// the network at t. from is the caller, or any rank of a collective the
// caller is solving at a rendezvous.
func (c *Comm) traceSend(o *obs.Recorder, t sim.VTime, from, to, size int) {
	o.Emit(obs.Event{T: t, Actor: c.group[from], Layer: obs.LayerMPI, Kind: obs.KindSend,
		Tag: c.curOp, Peer: c.group[to], Size: int64(size)})
}

// traceRecv emits the delivery event of those bytes, timing applied, at
// rank to (the one side message counters hang off).
func (c *Comm) traceRecv(o *obs.Recorder, t sim.VTime, to, from, size int) {
	me := c.group[to]
	o.Emit(obs.Event{T: t, Actor: me, Layer: obs.LayerMPI, Kind: obs.KindRecv,
		Tag: c.curOp, Peer: c.group[from], Size: int64(size)})
	o.Count(me, obs.MetricMsgs, 1)
	o.Count(me, obs.MetricMsgBytes, int64(size))
	op := c.curOp
	if op == "" {
		op = "p2p"
	}
	o.Count(me, obs.MetricMsgsPrefix+op, 1)
}

// Sendrecv sends sendData to rank `to` and then receives a message from
// rank `from`, in that order. Because Send is eager this cannot deadlock
// even when all ranks Sendrecv simultaneously, matching the use of
// MPI_Sendrecv in exchange patterns.
func (c *Comm) Sendrecv(to, sendTag int, sendData []byte, from, recvTag int) ([]byte, Status) {
	c.Send(to, sendTag, sendData)
	return c.Recv(from, recvTag)
}

// Request is a handle to a non-blocking operation. Wait must be called
// exactly once, by the rank owning the communicator.
type Request struct {
	c *Comm
	// A receive is matched by its owning rank — in Wait, or earlier by a
	// Test that finds the message queued — so a receive that has to sleep
	// always does so through the coordinator. pending holds until Wait has
	// consumed the message; sends complete inside Isend and never set it.
	pending       bool
	ctx, src, tag int
	msg           *message
	data          []byte
	status        Status
}

// Isend starts a non-blocking send. Because sends are eager the operation
// completes immediately; the returned Request exists so code written against
// the request API reads naturally.
func (c *Comm) Isend(to, tag int, data []byte) *Request {
	c.Send(to, tag, data)
	return &Request{c: c}
}

// Irecv starts a non-blocking receive: it records the match pattern, and
// the owning rank matches it in Wait (or Test).
func (c *Comm) Irecv(from, tag int) *Request {
	if from != AnySource {
		c.checkRank(from)
	}
	if tag != AnyTag {
		c.checkTag(tag)
	}
	return &Request{c: c, pending: true, ctx: c.ctx, src: from, tag: tag}
}

// Wait blocks until the operation completes and, for receives, returns the
// payload and status.
func (r *Request) Wait() ([]byte, Status) {
	if r.pending {
		if r.msg == nil {
			c := r.c
			r.msg = c.world.mailboxes[c.group[c.rank]].match(r.ctx, r.src, r.tag)
		}
		r.c.applyRecvTiming(r.msg)
		r.data = r.msg.data
		r.status = Status{Source: r.msg.src, Tag: r.msg.tag, Len: len(r.msg.data)}
		r.msg, r.pending = nil, false
	}
	return r.data, r.status
}

// Test reports whether the operation has completed without blocking. A
// busy-wait on Test cannot make progress: polling does not advance the
// rank's virtual clock, so a sender whose message would complete this
// request is never admitted. Use Wait, which blocks through the
// coordinator, instead of spinning on Test.
func (r *Request) Test() bool {
	if r.pending && r.msg == nil {
		c := r.c
		r.msg = c.world.mailboxes[c.group[c.rank]].tryMatch(r.ctx, r.src, r.tag)
	}
	return !r.pending || r.msg != nil
}

// WaitAll waits on every request in order.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}
