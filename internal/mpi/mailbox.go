package mpi

import "atomio/internal/sim"

// message is one in-flight point-to-point message. src is the sender's rank
// within the communicator identified by ctx; sentAt is the sender's virtual
// clock at the moment the message left.
type message struct {
	ctx    int
	src    int
	tag    int
	data   []byte
	sentAt sim.VTime
}

// abortError is the panic value used to unwind ranks blocked in a receive or
// a rendezvous when another rank has failed; Run recovers it into a RankError.
type abortError struct{}

func (abortError) Error() string { return "mpi: world aborted after failure on another rank" }

// mailbox is the unexpected-message queue of one world rank. Senders append;
// receivers scan for the first message matching (ctx, src, tag) in arrival
// order, which preserves per-sender FIFO ordering as MPI requires.
//
// The mailbox also mediates the owner's blocked state: a receive that finds
// no match registers its pattern and Parks through the coordinator, and the
// sender whose put satisfies the pattern Wakes the owner with a lower bound
// on the owner's post-receive virtual time. That handshake is what keeps
// admissions deterministic across a blocking receive.
type mailbox struct {
	queue   []message
	first   [1]message // queue's array until it holds two messages at once
	aborted bool

	// coord is the world's coordinator and owner the mailbox's world rank;
	// net and recvOverhead price the receive for the wake-up bound.
	coord        sim.Coord
	owner        int
	net          sim.CostModel
	recvOverhead sim.VTime
	waiting      bool        // the owner is parked in a receive
	wait         waitPattern // that receive's pattern, while waiting
}

// waitPattern is the match pattern of a blocked receive.
type waitPattern struct {
	ctx, src, tag int
}

// matches reports whether msg is the one the (ctx, src, tag) pattern names.
// Matching is exact — there are no wildcards — so which message a receive
// takes never depends on the order in which senders were admitted.
func matches(msg message, ctx, src, tag int) bool {
	return msg.ctx == ctx && msg.src == src && msg.tag == tag
}

// put enqueues a message. A put that satisfies the owner's registered
// receive wakes the owner, publishing the earliest virtual time the owner
// could act at after completing the receive. A queue that never holds two
// messages at once lives in the mailbox itself and allocates nothing.
func (m *mailbox) put(msg message) {
	if m.queue == nil {
		m.queue = m.first[:0]
	}
	m.queue = append(m.queue, msg)
	if m.waiting && matches(msg, m.wait.ctx, m.wait.src, m.wait.tag) {
		bound := msg.sentAt + m.net.Cost(int64(len(msg.data))) + m.recvOverhead
		m.waiting = false
		m.coord.Wake(m.owner, bound)
	}
}

// abort marks the world aborted so a failure on one rank cannot deadlock
// the rest: an owner parked in a registered receive is woken so it can
// observe the abort and unwind with a panic.
func (m *mailbox) abort() {
	m.aborted = true
	if m.waiting {
		m.waiting = false
		m.coord.Wake(m.owner, 0)
	}
}

// take removes and returns the first queued message matching the pattern,
// and whether there was one.
func (m *mailbox) take(ctx, src, tag int) (message, bool) {
	for i, msg := range m.queue {
		if matches(msg, ctx, src, tag) {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return msg, true
		}
	}
	return message{}, false
}

// match blocks until a message matching the given context, source and tag is
// available and removes it from the queue. If the world is aborted while
// waiting, match panics with abortError, which Run recovers. The owner
// registers its pattern and parks through the coordinator so peers can keep
// making progress; the wake comes from the put that satisfies the pattern
// (or from an abort), which clears the registration.
func (m *mailbox) match(ctx, src, tag int) message {
	for {
		if msg, ok := m.take(ctx, src, tag); ok {
			return msg
		}
		if m.aborted {
			panic(abortError{})
		}
		m.waiting, m.wait = true, waitPattern{ctx: ctx, src: src, tag: tag}
		m.coord.Park(m.owner)
	}
}
