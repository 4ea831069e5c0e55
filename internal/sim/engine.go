package sim

import "sync"

// Coord is the coordination surface a deterministic simulation runs on:
// the mailbox waits in internal/mpi, the grant-table waits in internal/lock
// and the server bookings in internal/pfs all go through it. The engine
// behind it is the single-threaded event-loop scheduler (internal/sim/des);
// *Gate is the goroutine-per-actor reference implementation that tests
// compare the event loop against. Both admit actions in the same
// lexicographic (virtual time, actor id) order, so a simulation produces
// byte-identical virtual output on either.
//
// Every blocking site follows one protocol: under the lock of the shared
// structure it is about to sleep on, the actor calls Block, then sleeps
// with Park; the peer that satisfies it calls Wake under the same lock, so
// the admission state and the sleeper's resumption can never disagree.
// Await announces an action and blocks until it is globally earliest; Done
// retires the actor.
type Coord interface {
	// Await announces that actor id wants to act at virtual time t and
	// blocks until that action is the earliest one pending, then takes the
	// exclusive turn (released by the actor's next Coord call).
	Await(id int, t VTime)
	// Block marks the actor as waiting on another actor, excluding it from
	// admission decisions. Call under the lock of the shared structure the
	// actor is about to sleep on, then sleep with Park.
	Block(id int)
	// Park puts the Blocked actor to sleep until a peer Wakes it. If l is
	// non-nil it is unlocked while parked and relocked before Park returns
	// (the condition-variable protocol); the caller rechecks its predicate.
	// A nil l parks without touching any lock.
	Park(id int, l sync.Locker)
	// Wake marks a parked actor live again, publishing t as a lower bound
	// on its next action time, and resumes its Park. It is called by the
	// actor doing the waking, under the same shared-structure lock as the
	// corresponding Block, before the sleeper can run again. Wake and Park
	// pair one-to-one.
	Wake(id int, t VTime)
	// Done retires an actor: it no longer constrains admissions.
	Done(id int)
	// Actors returns the number of actors coordinated.
	Actors() int
}

// Engine executes the actor bodies of one simulation. Production code runs
// on the event-loop scheduler in internal/sim/des (every actor a resumable
// coroutine driven by one event queue); Goroutines (one real goroutine per
// actor, coordinated by a Gate) is the reference engine the cross-engine
// tests pin it to.
type Engine interface {
	// Name is the engine's registry name ("goroutine", "eventloop").
	Name() string
	// NewCoord returns a coordinator of this engine's flavour for actors
	// 0..actors-1. Pass it to Run and to every structure the simulation
	// blocks on.
	NewCoord(actors int) Coord
	// Run executes body(id) for every actor 0..actors-1 and returns when
	// all bodies have returned. c must be the coordinator the bodies block
	// through, from this engine's NewCoord. A non-nil error reports an
	// engine-level failure (for example actors still asleep after every
	// runnable one finished).
	Run(c Coord, actors int, body func(id int)) error
}

// StoppedError is the panic value delivered to an actor its engine forcibly
// unwinds during teardown — an actor still asleep when no runnable actor
// remains (the event-loop analogue of a run that would otherwise deadlock).
// Rank runtimes treat it like an abort: it unwinds the actor's stack so
// deferred cleanups run, and is reported as a consequence, never as the
// root cause.
type StoppedError struct {
	// Actor is the stopped actor's id.
	Actor int
}

// Error implements the error interface.
func (e StoppedError) Error() string {
	return "sim: actor " + itoa(e.Actor) + " force-stopped by engine teardown (stalled waiting on a peer)"
}

// itoa is a minimal integer formatter so the hot error type needs no fmt.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Goroutines is the reference engine: one real goroutine per actor,
// coordinated by a Gate. No binary or facade call reaches it; tests run a
// world on it and on the event loop and require byte-identical results.
type Goroutines struct{}

// Name implements Engine.
func (Goroutines) Name() string { return "goroutine" }

// NewCoord implements Engine: goroutine worlds coordinate through a Gate.
func (Goroutines) NewCoord(actors int) Coord { return NewGate(actors) }

// Run implements Engine: spawn the bodies and wait for all of them.
func (Goroutines) Run(_ Coord, actors int, body func(id int)) error {
	var wg sync.WaitGroup
	for i := 0; i < actors; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body(id)
		}(i)
	}
	wg.Wait()
	return nil
}

var _ Engine = Goroutines{}

// Solo is the coordinator of a structure no engine drives: a lock manager,
// file system or mailbox touched by one actor on the caller's own goroutine
// (setup code, single-client tools, unit tests). With nobody to order
// against, Await, Block, Wake and Done have nothing to do. Park panics: an
// actor that must sleep needs a peer to wake it, and without an engine
// there is none — the call would hang forever.
type Solo struct{}

// Await implements Coord.
func (Solo) Await(int, VTime) {}

// Block implements Coord.
func (Solo) Block(int) {}

// Park implements Coord by panicking (see Solo).
func (Solo) Park(id int, _ sync.Locker) {
	panic("sim: actor " + itoa(id) + " blocking with no engine: no peer can ever wake this actor")
}

// Wake implements Coord.
func (Solo) Wake(int, VTime) {}

// Done implements Coord.
func (Solo) Done(int) {}

// Actors implements Coord: Solo coordinates the one caller.
func (Solo) Actors() int { return 1 }

var _ Coord = Solo{}
