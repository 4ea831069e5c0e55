package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"atomio/internal/sim"
)

func TestAttributionOrdersByDuration(t *testing.T) {
	events := []Event{
		{Layer: LayerMPI, Kind: KindSend, Peer: 1, Size: 10},
		{Layer: LayerMPI, Kind: KindSend, Peer: 1, Size: 10},
		{Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Dur: 500},
		{Layer: LayerPFS, Kind: KindServiceDone, Peer: -1, Dur: 200, Size: 64},
	}
	stats := Attribution(events)
	if len(stats) != 3 {
		t.Fatalf("got %d buckets, want 3", len(stats))
	}
	if stats[0].Kind != KindLockGrant || stats[1].Kind != KindServiceDone {
		t.Errorf("not sorted by descending duration: %+v", stats)
	}
	if stats[2].Count != 2 || stats[2].Bytes != 20 {
		t.Errorf("send bucket mis-aggregated: %+v", stats[2])
	}
	if got := statName(stats[0]); got != "lock.grant" {
		t.Errorf("statName = %q", got)
	}
}

func TestPhaseTotals(t *testing.T) {
	events := []Event{
		{Layer: LayerMPI, Kind: KindColl, Tag: TagAllgather, Peer: -1, Dur: 70},
		{Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "lockwait", Peer: -1, Dur: 100},
		{Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "lockwait", Peer: -1, Dur: 150},
	}
	phases := PhaseTotals(events)
	if !reflect.DeepEqual(phases, map[string]sim.VTime{"lockwait": 250}) {
		t.Errorf("PhaseTotals = %v", phases)
	}
}

// TestCriticalPathFollowsMessageEdge builds a two-actor chain where actor 1
// finishes last but only because it waited for actor 0's message: the path
// must cross the send→recv edge back into actor 0's early work.
func TestCriticalPathFollowsMessageEdge(t *testing.T) {
	events := []Event{
		{T: 0, Actor: 0, Seq: 0, Layer: LayerPFS, Kind: KindServiceDone, Peer: -1, Dur: 90},
		{T: 90, Actor: 0, Seq: 1, Layer: LayerMPI, Kind: KindSend, Peer: 1},
		{T: 5, Actor: 1, Seq: 0, Layer: LayerPFS, Kind: KindServiceDone, Peer: -1, Dur: 10},
		{T: 100, Actor: 1, Seq: 1, Layer: LayerMPI, Kind: KindRecv, Peer: 0, Dur: 10},
	}
	path := CriticalPath(events)
	var got [][2]int
	for _, e := range path {
		got = append(got, [2]int{e.Actor, int(e.Seq)})
	}
	want := [][2]int{{0, 0}, {0, 1}, {1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("path = %v, want %v (recv must chain to its send, not actor 1's idle start)", got, want)
	}
}

// TestCriticalPathFollowsGrantEdge checks a waited lock grant chains to the
// overlapping release on the other actor. Grant events are stamped at the
// grant instant with Dur carrying the wait since the request.
func TestCriticalPathFollowsGrantEdge(t *testing.T) {
	events := []Event{
		{T: 0, Actor: 0, Seq: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 0, Len: 100},
		{T: 70, Actor: 0, Seq: 1, Layer: LayerLock, Kind: KindLockRelease, Peer: -1, Off: 0, Len: 100, Dur: 10},
		{T: 10, Actor: 1, Seq: 0, Layer: LayerLock, Kind: KindLockRequest, Peer: -1, Off: 50, Len: 100},
		{T: 80, Actor: 1, Seq: 1, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 50, Len: 100, Dur: 70},
	}
	path := CriticalPath(events)
	if len(path) < 2 {
		t.Fatalf("path too short: %+v", path)
	}
	if first := path[0]; first.Actor != 0 || first.Kind != KindLockGrant {
		t.Errorf("path starts at %+v, want actor 0's grant via the release edge", first)
	}
	if last := path[len(path)-1]; last.Actor != 1 || last.Kind != KindLockGrant {
		t.Errorf("path ends at %+v, want actor 1's waited grant", last)
	}
	if CriticalPath(nil) != nil {
		t.Error("empty trace must yield an empty path")
	}
}

// TestCriticalPathFollowsCollectiveJoin: rank 2 enters a barrier late,
// after a long write, so ranks 0 and 1 wait in it, parked and woken as a
// rendezvous traces them. Whichever rank finishes the run last, the path
// reaches back through the join to rank 2's write.
func TestCriticalPathFollowsCollectiveJoin(t *testing.T) {
	const exit = 130
	entries := []sim.VTime{10, 20, 100}
	for last := range entries {
		rec := NewRecorder(len(entries), 0)
		rec.Emit(Event{T: 0, Actor: 2, Layer: LayerPFS, Kind: KindServiceDone, Peer: -1, Dur: 100})
		for r, entry := range entries {
			if r < 2 {
				rec.Emit(Event{T: 0, Actor: r, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "compute", Peer: -1, Dur: entry})
				rec.Emit(Event{T: entry, Actor: r, Layer: LayerSched, Kind: KindPark, Peer: -1})
				rec.Emit(Event{T: exit, Actor: r, Layer: LayerSched, Kind: KindWake, Peer: 2})
				rec.Emit(Event{T: exit, Actor: r, Layer: LayerSched, Kind: KindResume, Peer: -1})
			}
			rec.Emit(Event{T: entry, Actor: r, Layer: LayerMPI, Kind: KindColl, Tag: "barrier", Peer: -1, Dur: exit - entry, Aux: 7})
		}
		rec.Emit(Event{T: exit, Actor: last, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "transfer", Peer: -1, Dur: 50})
		path := CriticalPath(rec.Events())
		if end := path[len(path)-1]; end.Actor != last || end.Tag != "transfer" {
			t.Errorf("rank %d finishes last, but the path ends at %+v", last, end)
		}
		if first := path[0]; first.Actor != 2 || first.Kind != KindServiceDone {
			t.Errorf("rank %d finishes last: the path starts at %+v, want rank 2's write\n%+v", last, first, path)
		}
	}
}

func TestFitExponent(t *testing.T) {
	quadratic := []ScalingPoint{
		{Procs: 4, Msgs: 4 * 3},
		{Procs: 16, Msgs: 16 * 15},
		{Procs: 64, Msgs: 64 * 63},
	}
	if b := FitExponent(quadratic); math.Abs(b-2) > 0.1 {
		t.Errorf("ring-allgather fit = %.3f, want ~2", b)
	}
	linear := []ScalingPoint{{Procs: 4, Msgs: 40}, {Procs: 16, Msgs: 160}, {Procs: 64, Msgs: 640}}
	if b := FitExponent(linear); math.Abs(b-1) > 1e-9 {
		t.Errorf("linear fit = %.3f, want 1", b)
	}
	if b := FitExponent([]ScalingPoint{{Procs: 4, Msgs: 10}}); b != 0 {
		t.Errorf("single point fit = %.3f, want 0", b)
	}
	if b := FitExponent([]ScalingPoint{{Procs: 1, Msgs: 10}, {Procs: 0, Msgs: 5}}); b != 0 {
		t.Errorf("degenerate points fit = %.3f, want 0", b)
	}
}

func TestReportRendersAllSections(t *testing.T) {
	rec := NewRecorder(2, 0)
	rec.Emit(Event{T: 0, Actor: 0, Layer: LayerMPI, Kind: KindColl, Tag: TagAllgather, Peer: -1, Size: 8, Dur: 15})
	rec.Emit(Event{T: 10, Actor: 1, Layer: LayerMPI, Kind: KindColl, Tag: TagAllgather, Peer: -1, Size: 8, Dur: 5})
	rec.Emit(Event{T: 20, Actor: 1, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "transfer", Peer: -1, Dur: 40})
	rec.Count(0, MetricMsgs, 1)
	out := Report(&TraceData{Procs: 2, Events: rec.Events(), Metrics: rec.Metrics()})
	for _, want := range []string{
		"trace: 2 procs, 3 events",
		"attribution",
		"phase totals",
		"transfer",
		"mpi.coll:allgather",
		"critical path",
		"metrics:",
		MetricMsgs,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
