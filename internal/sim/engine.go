package sim

// Coord is the coordination surface a deterministic simulation runs on:
// the mailbox waits in internal/mpi, the grant-table waits in internal/lock
// and the server bookings in internal/pfs all go through it. The engine
// behind it is the single-threaded event-loop scheduler (internal/sim/des),
// which admits actions in lexicographic (virtual time, actor id) order, so
// a simulation's virtual output is a function of its inputs alone.
//
// One actor runs at a time, so the structures it touches need no locks.
// Every blocking site follows one protocol: an actor whose predicate on a
// shared structure fails sleeps with Park and rechecks the predicate when
// it resumes; the peer that satisfies it calls Wake. Await announces an
// action and blocks until it is globally earliest; Done retires the actor.
type Coord interface {
	// Await announces that actor id wants to act at virtual time t and
	// blocks until that action is the earliest one pending, then takes the
	// exclusive turn (released by the actor's next Coord call).
	Await(id int, t VTime)
	// Park puts the actor to sleep until a peer Wakes it; a sleeping actor
	// never constrains admissions. The caller rechecks its predicate when
	// Park returns.
	Park(id int)
	// Wake marks a parked actor live again, publishing t as a lower bound
	// on its next action time, and resumes its Park. It is called by the
	// actor doing the waking. Wake and Park pair one-to-one.
	Wake(id int, t VTime)
	// Done retires an actor: it no longer constrains admissions.
	Done(id int)
	// Actors returns the number of actors coordinated.
	Actors() int
}

// Engine executes the actor bodies of one simulation: the event-loop
// scheduler in internal/sim/des, every actor a resumable coroutine driven
// by one event queue. The interface is the seam tests substitute through —
// internal/harness's schedule explorer wraps the event loop to admit
// actions in other legal orders.
type Engine interface {
	// Name is the engine's registry name ("eventloop").
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

// Solo is the coordinator of a structure no engine drives: a lock manager,
// file system or mailbox touched by one actor on the caller's own goroutine
// (setup code, single-client tools, unit tests). With nobody to order
// against, Await, Wake and Done have nothing to do. Park panics: an
// actor that must sleep needs a peer to wake it, and without an engine
// there is none — the call would hang forever.
type Solo struct{}

// Await implements Coord.
func (Solo) Await(int, VTime) {}

// Park implements Coord by panicking (see Solo).
func (Solo) Park(id int) {
	panic("sim: actor " + itoa(id) + " blocking with no engine: no peer can ever wake this actor")
}

// Wake implements Coord.
func (Solo) Wake(int, VTime) {}

// Done implements Coord.
func (Solo) Done(int) {}

// Actors implements Coord: Solo coordinates the one caller.
func (Solo) Actors() int { return 1 }

var _ Coord = Solo{}
