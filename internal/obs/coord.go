package obs

import "atomio/internal/sim"

// CoordTracer wraps a sim.Coord and emits scheduler events: a sched.park
// when an actor goes to sleep, a sched.wake (stamped by the waker, on the
// sleeper's stream) publishing the wake bound, and a sched.resume when the
// sleeper runs again.
//
// The one cross-actor append — the waker's sched.wake on the sleeper's
// stream — is ordered by the engine, which runs one actor at a time: the
// sleeper appends its park before the inner Park yields, so before any
// waker runs, and its resume only after the inner Park returns, which the
// matching Wake precedes. Otherwise only the owning actor touches its slot.
type CoordTracer struct {
	inner sim.Coord
	rec   *Recorder
	// lastT tracks each actor's latest announced virtual time so park and
	// resume events carry the actor's current clock without reaching into
	// layer internals.
	lastT []sim.VTime
}

// Trace wraps c so that park/wake/resume flow into rec. A nil rec returns
// c unwrapped — tracing off costs nothing.
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

// Park implements sim.Coord, emitting the park event before the inner
// Park yields and the resume event when the sleeper runs again. The resume
// timestamp reflects the wake bound published while parked: the inner Park
// returns only after the matching Wake, which set lastT.
func (t *CoordTracer) Park(id int) {
	t.rec.Emit(Event{T: t.lastT[id], Actor: id, Layer: LayerSched, Kind: KindPark, Peer: -1})
	t.rec.Count(id, MetricParks, 1)
	t.inner.Park(id)
	t.rec.Emit(Event{T: t.lastT[id], Actor: id, Layer: LayerSched, Kind: KindResume, Peer: -1})
}

// Wake implements sim.Coord, stamping the wake bound onto the sleeper's
// stream before resuming it.
func (t *CoordTracer) Wake(id int, at sim.VTime) {
	if at > t.lastT[id] {
		t.lastT[id] = at
	}
	t.rec.Emit(Event{T: at, Actor: id, Layer: LayerSched, Kind: KindWake, Peer: -1})
	t.inner.Wake(id, at)
}

// Done implements sim.Coord.
func (t *CoordTracer) Done(id int) { t.inner.Done(id) }

// Actors implements sim.Coord.
func (t *CoordTracer) Actors() int { return t.inner.Actors() }

var _ sim.Coord = (*CoordTracer)(nil)
