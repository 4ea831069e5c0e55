package obs

import "atomio/internal/sim"

// CoordTracer wraps a sim.Coord and emits one sched.park span per sleep,
// appended by the sleeper when it runs again: T is its clock at the park,
// Dur runs to the wake bound a peer published meanwhile. Each actor
// appends only to its own stream; a Wake only raises the sleeper's clock.
type CoordTracer struct {
	inner sim.Coord
	rec   *Recorder
	// lastT tracks each actor's latest announced virtual time so park
	// spans carry the actor's clock without reaching into layer internals.
	lastT []sim.VTime
}

// Trace wraps c so that parks flow into rec. A nil rec returns c
// unwrapped — tracing off costs nothing.
func Trace(c sim.Coord, rec *Recorder) sim.Coord {
	if rec == nil || c == nil {
		return c
	}
	return &CoordTracer{inner: c, rec: rec, lastT: make([]sim.VTime, c.Actors())}
}

// Unwrap exposes the wrapped coordinator so engines that require their own
// Coord flavour (the event-loop scheduler) can recover it.
func (t *CoordTracer) Unwrap() sim.Coord { return t.inner }

// Await implements sim.Coord, recording the actor's announced time.
func (t *CoordTracer) Await(id int, at sim.VTime) {
	if at > t.lastT[id] {
		t.lastT[id] = at
	}
	t.inner.Await(id, at)
}

// Park implements sim.Coord, emitting the park span once the sleeper runs
// again: the inner Park returns only after the matching Wake, which raised
// lastT to the wake bound.
func (t *CoordTracer) Park(id int) {
	at := t.lastT[id]
	t.rec.Count(id, MetricParks, 1)
	t.inner.Park(id)
	t.rec.Emit(Event{T: at, Actor: id, Layer: LayerSched, Kind: KindPark, Peer: -1, Dur: t.lastT[id] - at})
}

// Wake implements sim.Coord, raising the sleeper's clock to the wake bound.
func (t *CoordTracer) Wake(id int, at sim.VTime) {
	if at > t.lastT[id] {
		t.lastT[id] = at
	}
	t.inner.Wake(id, at)
}

// Done implements sim.Coord.
func (t *CoordTracer) Done(id int) { t.inner.Done(id) }

// Actors implements sim.Coord.
func (t *CoordTracer) Actors() int { return t.inner.Actors() }

var _ sim.Coord = (*CoordTracer)(nil)
