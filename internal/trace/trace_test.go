package trace

import (
	"slices"
	"testing"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

func TestSpan(t *testing.T) {
	rec := obs.NewRecorder(2, 0)
	clk := sim.NewClock(100)
	s := Start(rec, 1, PhaseLockWait, clk)
	clk.Advance(40)
	s.Stop()
	s.Stop() // idempotent
	if got := rec.Counter(1, Counter(PhaseLockWait)); got != 40 {
		t.Fatalf("rank 1 lockwait counter = %d, want 40", got)
	}
	if got := rec.Counter(0, Counter(PhaseLockWait)); got != 0 {
		t.Fatalf("rank 0 lockwait counter = %d, want 0", got)
	}
	want := []obs.Event{{T: 100, Actor: 1, Layer: obs.LayerPhase, Kind: obs.KindPhaseSpan,
		Tag: "lockwait", Peer: -1, Dur: 40}}
	if got := rec.Events(); !slices.Equal(got, want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
}

func TestNilRecorderSpanIsNoOp(t *testing.T) {
	clk := sim.NewClock(0)
	s := Start(nil, 0, PhaseTransfer, clk)
	clk.Advance(10)
	s.Stop() // must not panic
}

func TestPhasesSortedAndComplete(t *testing.T) {
	if !slices.IsSorted(Phases) {
		t.Fatalf("Phases not sorted: %v", Phases)
	}
	for _, p := range []Phase{PhaseHandshake, PhaseLockWait, PhaseTransfer, PhaseSyncWait, PhaseExchange} {
		if !slices.Contains(Phases, p) {
			t.Errorf("Phases misses %q", p)
		}
	}
}
