package runner

import (
	"slices"
	"testing"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

// TestCriticalPathWithinMakespan traces every Figure 8 cell, the scaling
// grid to P=1024 and the 200-cell fault fleet, and holds each critical path
// to the run it explains: it starts at or after 0 and ends at the trace's
// latest span end, which is the cell's makespan, and its summary charges
// exactly the path's span — every instant of the path to one event on it.
// While grants and server pieces were stamped at their end and a span's end
// was read as T+Dur, the locking paths ended up to twice the makespan; while
// each event was charged only the time past the latest finish before it, a
// phase span closing after the events it nests was charged none of the gaps
// between them, and up to 97 % of a path was charged to nothing.
func TestCriticalPathWithinMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("traces 72 Figure 8, 12 scaling and 200 fleet cells")
	}
	cells := slices.Concat(Figure8Grid().Cells(), ScalingGridTo(1024), FleetGrid(1, 200))
	for _, c := range cells {
		e := c.Experiment
		e.TraceEvents = true
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		events := res.Events.Events()
		var end sim.VTime
		for _, ev := range events {
			end = max(end, ev.T+ev.Dur)
		}
		if end != res.Makespan {
			t.Errorf("%s: the trace ends at %v, the run at %v", c.ID, end, res.Makespan)
		}
		path := obs.CriticalPath(events)
		first, last := path[0], path[len(path)-1]
		if first.T < 0 || last.T+last.Dur != end {
			t.Errorf("%s: the path spans [%v, %v), the trace ends at %v", c.ID, first.T, last.T+last.Dur, end)
		}
		var charged sim.VTime
		for _, s := range obs.PathSummary(path) {
			charged += s.Dur
		}
		if span := last.T + last.Dur - first.T; charged != span {
			t.Errorf("%s: the path summary charges %v over a %v path", c.ID, charged, span)
		}
	}
}
