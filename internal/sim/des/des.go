// Package des is the simulation engine: a single-threaded discrete-event
// scheduler that runs every simulated rank as a resumable coroutine, so a
// simulated event that hands the turn to another actor costs a heap push,
// a heap pop and a coroutine switch, and one that keeps it costs a look at
// the head of the queue.
//
// The scheduler maintains one event queue keyed lexicographically by
// (virtual time, actor id), with a per-actor sequence stamp for lazy
// invalidation. Await pushes the actor's announcement and yields; the main
// loop pops the globally earliest valid event and resumes its actor, which
// then runs exclusively until its next Await, Park or return. An Await
// whose announcement would itself be the earliest entry returns at once:
// the main loop would pop it next and resume the same actor, so skipping
// that round trip changes no admission. Because only
// one actor ever runs at a time, the exclusive turn of the sim.Coord
// protocol is implicit, the structures actors share need no locks, and
// every virtual timestamp a simulation produces is a function of its
// inputs alone. internal/harness's schedule explorer
// wraps this engine to admit actions in other legal orders.
//
// Teardown mirrors the abort semantics of the rank runtimes: when the queue
// drains while actors are still parked (a peer they were waiting on failed),
// the scheduler force-stops them one by one with sim.StoppedError panics,
// re-draining between stops so wake-ups triggered by an unwinding actor
// (for example a world abort) still run, and reports the stall as an
// engine-level error.
package des

import (
	"fmt"
	"iter"

	"atomio/internal/sim"
)

// Engine is the event-loop engine. The zero value is ready to use.
type Engine struct{}

// New returns the event-loop engine.
func New() Engine { return Engine{} }

// Name implements sim.Engine.
func (Engine) Name() string { return "eventloop" }

// NewCoord implements sim.Engine: returns the single-threaded scheduler.
func (Engine) NewCoord(actors int) sim.Coord { return newScheduler(actors) }

// Run implements sim.Engine. c must be a coordinator from this engine's
// NewCoord — possibly wrapped by a delegating tracer exposing Unwrap —
// sized for exactly the given actor count.
func (Engine) Run(c sim.Coord, actors int, body func(id int)) error {
	for {
		u, ok := c.(interface{ Unwrap() sim.Coord })
		if !ok {
			break
		}
		c = u.Unwrap()
	}
	s, ok := c.(*scheduler)
	if !ok {
		return fmt.Errorf("des: event-loop engine needs its own coordinator, got %T", c)
	}
	if s.n != actors {
		return fmt.Errorf("des: coordinator sized for %d actors, run has %d", s.n, actors)
	}
	return s.run(body)
}

var _ sim.Engine = Engine{}

// actorState tracks where an actor is in its lifecycle.
type actorState int8

const (
	// ready: the actor has a pending announcement in the event queue.
	ready actorState = iota
	// running: the actor is the one currently executing.
	running
	// parked: the actor sleeps in Park until a peer Wakes it. No queue
	// entry — parked actors never constrain admissions.
	parked
	// finished: the actor's body returned or was unwound; skip it forever.
	finished
)

// event is one queued announcement: actor id wants to run at virtual time t.
// seq invalidates superseded announcements lazily.
type event struct {
	t   sim.VTime
	id  int
	seq int64
}

// earlier orders events lexicographically by (t, id).
func earlier(a, b event) bool { return a.t < b.t || (a.t == b.t && a.id < b.id) }

// eventHeap is a min-heap of events keyed lexicographically (t, id).
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return earlier(h[i], h[j]) }

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return top
		}
		(*h)[i], (*h)[min] = (*h)[min], (*h)[i]
		i = min
	}
}

// actor is one resumable rank body, driven through iter.Pull: resume runs
// the body to its next yield point (an Await or Park) on the scheduler's
// goroutine-free hot path; stop forces yield to return false, which the
// coordination methods convert into a sim.StoppedError panic so the body's
// deferred cleanups unwind.
type actor struct {
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	stop   func()
}

// scheduler implements sim.Coord for the event-loop engine. All state is
// touched only from the scheduler's own goroutine (the main loop and the
// coroutines it resumes run strictly one at a time), so no field needs a
// mutex.
type scheduler struct {
	n     int
	pub   []sim.VTime // last announced action time per actor
	state []actorState
	seq   []int64 // current announcement stamp per actor
	queue eventHeap
	acts  []actor
	ran   bool
}

func newScheduler(actors int) *scheduler {
	if actors < 1 {
		panic(fmt.Sprintf("des: scheduler needs at least one actor, got %d", actors))
	}
	return &scheduler{
		n:     actors,
		pub:   make([]sim.VTime, actors),
		state: make([]actorState, actors),
		seq:   make([]int64, actors),
		queue: make(eventHeap, 0, actors),
		acts:  make([]actor, actors),
	}
}

// Actors implements sim.Coord.
func (s *scheduler) Actors() int { return s.n }

// announce queues a fresh event for id at its published time, superseding
// any previous announcement.
func (s *scheduler) announce(id int) {
	s.seq[id]++
	s.queue.push(event{t: s.pub[id], id: id, seq: s.seq[id]})
}

// Await implements sim.Coord: announce (pub[id], id) — pub raised to t —
// and yield to the scheduler, which resumes this actor when its
// announcement is the globally earliest. On return the actor runs
// exclusively: the event-loop form of holding the turn. An announcement
// that sorts before the queue's head would be the next one popped, so
// Await returns at once instead, pushing nothing; behind any head, even a
// stale one the loop would skip, it yields.
func (s *scheduler) Await(id int, t sim.VTime) {
	if t > s.pub[id] {
		s.pub[id] = t
	}
	if len(s.queue) == 0 || earlier(event{t: s.pub[id], id: id}, s.queue[0]) {
		return
	}
	s.state[id] = ready
	s.announce(id)
	if !s.acts[id].yield(struct{}{}) {
		panic(sim.StoppedError{Actor: id})
	}
	s.state[id] = running
}

// Park implements sim.Coord: yield without an announcement, so the actor
// sleeps until a peer's Wake re-announces it.
func (s *scheduler) Park(id int) {
	s.state[id] = parked
	if !s.acts[id].yield(struct{}{}) {
		panic(sim.StoppedError{Actor: id})
	}
	s.state[id] = running
}

// Wake implements sim.Coord: publish t as a lower bound on the parked
// actor's next action time and re-announce it. A Wake aimed at an actor
// that is no longer parked (it was force-stopped and is unwinding) only
// raises the bound.
func (s *scheduler) Wake(id int, t sim.VTime) {
	if t > s.pub[id] {
		s.pub[id] = t
	}
	if s.state[id] == parked {
		s.state[id] = ready
		s.announce(id)
	}
}

// Done implements sim.Coord: retire the actor and invalidate any pending
// announcement.
func (s *scheduler) Done(id int) {
	s.state[id] = finished
	s.seq[id]++
}

// run executes the simulation: seed every actor at virtual time zero, then
// pop-and-resume until the queue drains. Leftover non-finished actors are
// stalled on peers that will never wake them; they are force-stopped (their
// bodies unwind via sim.StoppedError) and reported.
func (s *scheduler) run(body func(id int)) error {
	if s.ran {
		return fmt.Errorf("des: scheduler cannot be reused")
	}
	s.ran = true
	for id := 0; id < s.n; id++ {
		id := id
		a := &s.acts[id]
		a.resume, a.stop = iter.Pull(func(yield func(struct{}) bool) {
			a.yield = yield
			body(id)
		})
		// Seed: every actor announced at its initial virtual time. seq is
		// still 0, matching the zero-valued stamps.
		s.queue.push(event{t: s.pub[id], id: id, seq: s.seq[id]})
	}
	s.drain()
	var stalled []int
	for id := 0; id < s.n; id++ {
		if s.state[id] == finished {
			continue
		}
		stalled = append(stalled, id)
		s.acts[id].stop()
		s.state[id] = finished
		s.seq[id]++
		// Unwinding the stalled actor may have woken peers (a world abort
		// re-announces parked receivers); run them before stopping more.
		s.drain()
	}
	if stalled != nil {
		return fmt.Errorf("des: %d actor(s) still waiting on peers after all runnable actors finished (stalled: %v)", len(stalled), stalled)
	}
	return nil
}

// drain pops and resumes until no valid event remains.
func (s *scheduler) drain() {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.seq != s.seq[e.id] || s.state[e.id] != ready {
			continue
		}
		s.state[e.id] = running
		if _, more := s.acts[e.id].resume(); !more {
			// The body returned (normally or unwound past its recover);
			// the rank runtime's deferred Done usually got here first.
			s.state[e.id] = finished
			s.seq[e.id]++
		}
	}
}
