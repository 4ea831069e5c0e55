package sim

import (
	"fmt"
	"sync"
)

// Gate is the coordinator of the Goroutines reference engine: it makes a
// multi-goroutine simulation deterministic. Real goroutines piggyback
// virtual-time causality on real synchronization, but shared facilities (a Resource's FCFS queue, a lock table, a mailbox) are
// otherwise touched in *real* arrival order, which varies run to run: two
// actors whose requests overlap in virtual time race for the queue, and the
// loser's virtual completion — and therefore the reported bandwidth —
// depends on the scheduler. A Gate closes that race by admitting the
// globally earliest pending action first.
//
// Every actor announces each externally visible action (a send, a resource
// acquire, a lock request) with Await(id, t), where t is the actor's
// virtual time for the action. Await blocks until (t, id) is the
// lexicographic minimum over all live actors' published times — virtual
// time first, actor id as the deterministic tie-break — then returns with
// the actor holding the turn. The turn is exclusive: no other actor is
// admitted until the holder's next Gate call (its next Await, or Block, or
// Done) releases it, so the action completes atomically with respect to
// every other gated action.
//
// An actor about to block on another actor (an empty mailbox, a held lock)
// must call Block first so the admission rule skips it; whoever wakes it
// calls Unblock (or Wake, which also resumes a Park) with a lower bound on
// the sleeper's next action time, *before* releasing the shared structure
// they met on — that ordering is what keeps the admission decisions
// race-free. Finished (or dead) actors call Done.
//
// Admission is decided on a lazy-deletion min-heap of (time, id) entries —
// one live entry per actor, superseded entries invalidated by a per-actor
// stamp — so each admission check costs O(log n) amortized instead of the
// O(n) scan over all actors, which keeps cross-engine checks affordable at
// the process counts the event loop is run at.
//
// Park/Wake sleep and resume through per-actor tokens (see Coord).
type Gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pub     []VTime // last announced action time per actor
	blocked []bool  // actor is waiting on another actor; skip it
	done    []bool  // actor finished; skip it forever
	holder  int     // actor currently holding the turn, or -1

	// heap holds one valid candidacy entry per live (not blocked, not done)
	// actor, keyed (pub[id], id); stamp[id] invalidates superseded entries
	// lazily.
	heap  gateHeap
	stamp []int64

	// park holds one wake token per actor. Buffered so a Wake issued
	// between the sleeper's Block and its Park (the shared-structure lock
	// is released in between for channel-style waiters) is never lost.
	park []chan struct{}
}

// gateEntry is one heap candidacy: actor id published time t; valid while
// stamp matches the actor's current stamp.
type gateEntry struct {
	t     VTime
	id    int
	stamp int64
}

// gateHeap is a min-heap of gateEntry keyed lexicographically (t, id).
type gateHeap []gateEntry

func (h gateHeap) less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].id < h[j].id)
}

func (h *gateHeap) push(e gateEntry) {
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

func (h *gateHeap) pop() {
	old := *h
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
			return
		}
		(*h)[i], (*h)[min] = (*h)[min], (*h)[i]
		i = min
	}
}

// NewGate returns a gate for actors 0..actors-1.
func NewGate(actors int) *Gate {
	if actors < 1 {
		panic(fmt.Sprintf("sim: gate needs at least one actor, got %d", actors))
	}
	g := &Gate{
		pub:     make([]VTime, actors),
		blocked: make([]bool, actors),
		done:    make([]bool, actors),
		holder:  -1,
		stamp:   make([]int64, actors),
		park:    make([]chan struct{}, actors),
	}
	g.cond = sync.NewCond(&g.mu)
	g.heap = make(gateHeap, 0, actors)
	for id := 0; id < actors; id++ {
		g.park[id] = make(chan struct{}, 1)
		g.heap.push(gateEntry{t: 0, id: id})
	}
	return g
}

// Actors returns the number of actors the gate coordinates.
func (g *Gate) Actors() int { return len(g.pub) }

// republish invalidates id's current heap entry and, when live, pushes a
// fresh one at its published time. Callers hold g.mu.
func (g *Gate) republish(id int) {
	g.stamp[id]++
	if !g.done[id] && !g.blocked[id] {
		g.heap.push(gateEntry{t: g.pub[id], id: id, stamp: g.stamp[id]})
	}
}

// Await announces that actor id wants to act at virtual time t and blocks
// until that action is the earliest one pending, then takes the turn.
// Calling Await while holding the turn releases it first, so a sequence of
// gated actions interleaves correctly with other actors.
func (g *Gate) Await(id int, t VTime) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.holder == id {
		g.holder = -1
	}
	if t > g.pub[id] {
		g.pub[id] = t
	}
	g.republish(id)
	g.cond.Broadcast()
	for g.holder != -1 || !g.earliest(id, t) {
		g.cond.Wait()
	}
	g.holder = id
}

// earliest reports whether (t, id) is the lexicographic minimum over all
// live actors' published times, by inspecting the heap top: after discarding
// stale entries, the top is the minimum over every live actor (the caller
// included, whose entry carries pub[id] >= t), so (t, id) is the minimum
// exactly when the top is the caller's own entry or keys after (t, id).
// Callers hold g.mu.
func (g *Gate) earliest(id int, t VTime) bool {
	for len(g.heap) > 0 {
		e := g.heap[0]
		if e.stamp != g.stamp[e.id] {
			g.heap.pop()
			continue
		}
		if e.id == id {
			return true
		}
		return e.t > t || (e.t == t && e.id > id)
	}
	return true
}

// Block marks the actor as waiting on another actor, excluding it from
// admission decisions (and releasing the turn if held). It must be called
// under the lock of the shared structure the actor is about to sleep on, so
// that the matching Unblock cannot be missed.
func (g *Gate) Block(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.holder == id {
		g.holder = -1
	}
	g.blocked[id] = true
	g.republish(id)
	g.cond.Broadcast()
}

// Unblock marks a blocked actor live again, publishing t as a lower bound
// on its next action time. It is called by the actor doing the waking,
// under the same shared-structure lock as the corresponding Block, before
// the sleeper can run again.
func (g *Gate) Unblock(id int, t VTime) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blocked[id] = false
	if t > g.pub[id] {
		g.pub[id] = t
	}
	g.republish(id)
	g.cond.Broadcast()
}

// Park implements Coord: sleep until the matching Wake. A non-nil l is
// unlocked while parked and relocked before returning, so callers loop on
// their predicate exactly as with a condition variable.
func (g *Gate) Park(id int, l sync.Locker) {
	if l != nil {
		l.Unlock()
	}
	<-g.park[id]
	if l != nil {
		l.Lock()
	}
}

// Wake implements Coord: Unblock plus delivery of the wake token the
// matching Park is (or will be) sleeping on. Wake and Park pair one-to-one
// per actor; the buffered token absorbs a Wake that lands before the
// sleeper reaches its Park.
func (g *Gate) Wake(id int, t VTime) {
	g.Unblock(id, t)
	g.park[id] <- struct{}{}
}

// Done retires an actor: it no longer constrains admissions. Safe to call
// for an actor that is blocked or holds the turn (both are released).
func (g *Gate) Done(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.holder == id {
		g.holder = -1
	}
	g.done[id] = true
	g.blocked[id] = false
	g.republish(id)
	g.cond.Broadcast()
}

var _ Coord = (*Gate)(nil)
