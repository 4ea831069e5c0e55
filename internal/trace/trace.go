// Package trace names the phases of an atomic collective write — the
// handshake, waiting for locks, moving data, synchronizing — and times
// them: a Span opened at a phase's start and stopped at its end records
// one phase.span event and adds its virtual duration to the rank's
// phase.<p>.ns counter in the run's obs.Recorder. Those counters are the
// per-rank phase breakdown (the observability a production MPI-IO stack
// exposes through tools like Darshan); nothing else stores it.
//
// Like every obs call, a span is made and stopped by the rank that owns
// it, on the engine's one thread: one actor at a time, no locks.
package trace

import (
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// Phase labels the standard phases of an atomic collective write.
type Phase string

// Standard phases.
const (
	PhaseHandshake Phase = "handshake" // view exchange, matrix, coloring
	PhaseLockWait  Phase = "lockwait"  // waiting for byte-range locks
	PhaseTransfer  Phase = "transfer"  // data movement to/from servers
	PhaseSyncWait  Phase = "syncwait"  // barriers between phases/colors
	PhaseExchange  Phase = "exchange"  // two-phase data redistribution
)

// Phases lists every phase, sorted by name: the rows of a breakdown table.
var Phases = []Phase{PhaseExchange, PhaseHandshake, PhaseLockWait, PhaseSyncWait, PhaseTransfer}

// Counter names the per-rank obs counter that accumulates p's virtual ns.
func Counter(p Phase) string { return obs.MetricPhasePrefix + string(p) + ".ns" }

// Span measures one contiguous phase occurrence: Start it at the start,
// Stop it at the end.
type Span struct {
	rec   *obs.Recorder
	rank  int
	phase Phase
	start sim.VTime
	clock *sim.Clock
}

// Start opens a span on the rank's clock. A nil recorder yields a no-op
// span, so instrumented code paths need no conditionals.
func Start(rec *obs.Recorder, rank int, p Phase, clock *sim.Clock) Span {
	if rec == nil {
		return Span{}
	}
	return Span{rec: rec, rank: rank, phase: p, start: clock.Now(), clock: clock}
}

// Stop closes the span: it emits the phase.span event and charges the
// elapsed virtual time to the rank's phase counter. Idempotent.
func (s *Span) Stop() {
	if s.rec == nil {
		return
	}
	d := s.clock.Now() - s.start
	s.rec.Emit(obs.Event{
		T: s.start, Actor: s.rank, Layer: obs.LayerPhase, Kind: obs.KindPhaseSpan,
		Tag: string(s.phase), Peer: -1, Dur: d,
	})
	s.rec.Count(s.rank, Counter(s.phase), int64(d))
	s.rec = nil
}
