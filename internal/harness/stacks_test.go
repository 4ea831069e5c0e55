package harness

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"atomio/internal/core"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// stackPeak is the event loop, with the bytes of goroutine stack in use
// read as each actor's body returns: while it still holds its stack, as
// does every actor that has not finished yet. The reading runs on a
// goroutine of its own, so that no actor's stack grows to take it.
type stackPeak struct {
	peak uint64
	read chan struct{} // an actor asks for a reading, then waits for it
}

// Name implements sim.Engine.
func (*stackPeak) Name() string { return "stackpeak" }

// NewCoord implements sim.Engine.
func (*stackPeak) NewCoord(actors int) sim.Coord { return des.New().NewCoord(actors) }

// Run implements sim.Engine.
func (s *stackPeak) Run(c sim.Coord, actors int, body func(id int)) error {
	s.read = make(chan struct{})
	defer close(s.read)
	go func() {
		var m runtime.MemStats
		for range s.read {
			runtime.ReadMemStats(&m)
			s.peak = max(s.peak, m.StackInuse)
			s.read <- struct{}{}
		}
	}()
	return des.New().Run(c, actors, func(id int) {
		body(id)
		s.read <- struct{}{}
		<-s.read
	})
}

// TestLockingRankStacksDoNotDouble holds the stacks of the P=4096 locking
// scaling cell's rank coroutines under 6 KB each. Every rank's stack is
// sized by its deepest frame chain, which ends on the write or lock path
// under an Await or a Park: the ranks hold 4 KB stacks, 4.2 KB per rank in
// all. A frame on those paths that grows past the next boundary doubles
// every rank's stack, 8 KB per rank, which the cell pays as 18 MB of peak
// RSS and a lock-scale pass as wall time. The reading's own frame under
// each body makes the test double a few dozen bytes before the cell does,
// a margin it keeps on purpose. The collector is off, so no stack shrinks
// while the run is read. The race detector's frames are larger, and its
// ranks hold 8 KB stacks already: there the test skips.
func TestLockingRankStacksDoNotDouble(t *testing.T) {
	if raceBuild() {
		t.Skip("race-instrumented frames double every rank's stack")
	}
	const maxPerRank = 6 << 10
	// The scaling grid's P=4096 locking cell (runner.ScalingGridTo).
	e := Experiment{Platform: platform.IBMSP(), M: 16, N: 4096 * 64, Procs: 4096,
		Overlap: 16, Pattern: ColumnWise, Strategy: core.Locking{}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng := &stackPeak{}
	if _, err := e.run(eng); err != nil {
		t.Fatal(err)
	}
	perRank := float64(eng.peak) / float64(e.Procs)
	t.Logf("%.0f bytes of stack per rank", perRank)
	if perRank > maxPerRank {
		t.Errorf("the P=4096 locking cell's ranks hold %.0f bytes of stack each; ceiling %d", perRank, maxPerRank)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
