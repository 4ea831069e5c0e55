package runner

import (
	"testing"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

// TestCriticalPathWithinMakespan traces every Figure 8 cell and the scaling
// grid to P=1024 and holds each critical path to the run it explains: it
// starts at or after 0 and ends at the trace's latest span end, which is
// the cell's makespan, and its summary charges at most the path's span.
// While grants and server pieces were stamped at their end and a span's end
// was read as T+Dur, the locking paths ended up to twice the makespan.
func TestCriticalPathWithinMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("traces 72 Figure 8 and 12 scaling cells")
	}
	cells := append(Figure8Grid().Cells(), ScalingGridTo(1024)...)
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
		if span := last.T + last.Dur - first.T; charged > span {
			t.Errorf("%s: the path summary charges %v over a %v path", c.ID, charged, span)
		}
	}
}
