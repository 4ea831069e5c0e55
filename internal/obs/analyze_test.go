package obs

import (
	"fmt"
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
		{Layer: LayerPFS, Kind: KindServe, Peer: -1, Dur: 200, Size: 64},
	}
	stats := Attribution(events)
	if len(stats) != 3 {
		t.Fatalf("got %d buckets, want 3", len(stats))
	}
	if stats[0].Kind != KindLockGrant || stats[1].Kind != KindServe {
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
		{T: 0, Actor: 0, Seq: 0, Layer: LayerPFS, Kind: KindServe, Peer: -1, Dur: 90},
		{T: 90, Actor: 0, Seq: 1, Layer: LayerMPI, Kind: KindSend, Peer: 1},
		{T: 5, Actor: 1, Seq: 0, Layer: LayerPFS, Kind: KindServe, Peer: -1, Dur: 10},
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
// overlapping release on the other actor, not to a later release elsewhere
// in the file. A grant spans from its request to its return, Dur the wait.
func TestCriticalPathFollowsGrantEdge(t *testing.T) {
	events := []Event{
		{T: 0, Actor: 0, Seq: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 0, Len: 100},
		{T: 70, Actor: 0, Seq: 1, Layer: LayerLock, Kind: KindLockRelease, Peer: -1, Off: 0, Len: 100, Dur: 10},
		{T: 10, Actor: 1, Seq: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 50, Len: 100, Dur: 80},
		{T: 0, Actor: 2, Seq: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 500, Len: 100},
		{T: 75, Actor: 2, Seq: 1, Layer: LayerLock, Kind: KindLockRelease, Peer: -1, Off: 500, Len: 100, Dur: 10},
	}
	path := CriticalPath(events)
	var got [][2]int
	for _, e := range path {
		got = append(got, [2]int{e.Actor, int(e.Seq)})
	}
	if want := [][2]int{{0, 0}, {0, 1}, {1, 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("path = %v, want %v: actor 1's grant waited on actor 0's overlapping release", got, want)
	}
	if CriticalPath(nil) != nil {
		t.Error("empty trace must yield an empty path")
	}
}

// TestCriticalPathFollowsCollectiveJoin: rank 2 enters a barrier late,
// after a long write, so ranks 0 and 1 wait in it, each in one park span as
// a rendezvous traces them. Whichever rank finishes the run last, the path
// reaches back through the join to rank 2's write.
func TestCriticalPathFollowsCollectiveJoin(t *testing.T) {
	const exit = 130
	entries := []sim.VTime{10, 20, 100}
	for last := range entries {
		rec := NewRecorder(len(entries), 0)
		rec.Emit(Event{T: 0, Actor: 2, Layer: LayerPFS, Kind: KindServe, Peer: -1, Dur: 100})
		for r, entry := range entries {
			if r < 2 {
				rec.Emit(Event{T: 0, Actor: r, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "compute", Peer: -1, Dur: entry})
				rec.Emit(Event{T: entry, Actor: r, Layer: LayerSched, Kind: KindPark, Peer: -1, Dur: exit - entry})
			}
			rec.Emit(Event{T: entry, Actor: r, Layer: LayerMPI, Kind: KindColl, Tag: "barrier", Peer: -1, Dur: exit - entry, Aux: 7})
		}
		rec.Emit(Event{T: exit, Actor: last, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "transfer", Peer: -1, Dur: 50})
		path := CriticalPath(rec.Events())
		if end := path[len(path)-1]; end.Actor != last || end.Tag != "transfer" {
			t.Errorf("rank %d finishes last, but the path ends at %+v", last, end)
		}
		if first := path[0]; first.Actor != 2 || first.Kind != KindServe {
			t.Errorf("rank %d finishes last: the path starts at %+v, want rank 2's write\n%+v", last, first, path)
		}
	}
}

// TestPathSummaryChargesPathTimeOnce: rank 1's grant waits out rank 0's
// write and release, and its transfer phase closes 10 ns after its write.
// The path runs through all of it, but the grant is charged only the
// hand-off after the release and the phase only its tail, so the summary
// sums to the path's span instead of double-counting nested and waited-out
// time.
func TestPathSummaryChargesPathTimeOnce(t *testing.T) {
	rec := NewRecorder(2, 0)
	for _, e := range []Event{
		{T: 0, Actor: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 0, Len: 100},
		{T: 0, Actor: 0, Layer: LayerPFS, Kind: KindServe, Peer: 0, Dur: 60},
		{T: 60, Actor: 0, Layer: LayerLock, Kind: KindLockRelease, Peer: -1, Off: 0, Len: 100, Dur: 10},
		{T: 0, Actor: 0, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "transfer", Peer: -1, Dur: 60},
		{T: 5, Actor: 1, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 50, Len: 100, Dur: 70},
		{T: 75, Actor: 1, Layer: LayerPFS, Kind: KindServe, Peer: 0, Dur: 25},
		{T: 5, Actor: 1, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "transfer", Peer: -1, Dur: 105},
	} {
		rec.Emit(e)
	}
	path := CriticalPath(rec.Events())
	var got []string
	for _, e := range path {
		got = append(got, fmt.Sprintf("%d:%s.%s", e.Actor, e.Layer, e.Kind))
	}
	want := []string{"0:lock.grant", "0:pfs.serve", "0:lock.release", "1:lock.grant", "1:pfs.serve", "1:phase.span"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	charged, dark := pathCharges(path)
	wantCharged := map[string]sim.VTime{"lock.grant": 5, "pfs.serve": 85, "lock.release": 10, "phase.span:transfer": 10}
	if !reflect.DeepEqual(charged, wantCharged) {
		t.Errorf("summary = %v, want %v", charged, wantCharged)
	}
	if dark != 0 {
		t.Errorf("the summary leaves %d ns of the path's span uncharged", dark)
	}
}

// pathCharges returns what PathSummary charges each bucket of path, and
// the path's span minus their sum: the path time charged to nothing.
func pathCharges(path []Event) (map[string]sim.VTime, sim.VTime) {
	charged := map[string]sim.VTime{}
	dark := finish(path[len(path)-1]) - path[0].T
	for _, s := range PathSummary(path) {
		charged[statName(s)] = s.Dur
		dark -= s.Dur
	}
	return charged, dark
}

// TestPathSummaryChargesAnEnclosingSpanItsGap is the locking shape: after
// its grant a rank spends 20 ns on its side of the link before the server
// serves its piece, and its transfer phase, which spans both, is appended
// after the serve. The phase is charged the gap no other event covers.
// While each event was charged only the time past the latest finish before
// it, the phase closed after the serve was charged nothing and the gap
// nothing either.
func TestPathSummaryChargesAnEnclosingSpanItsGap(t *testing.T) {
	rec := NewRecorder(1, 0)
	for _, e := range []Event{
		{T: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 0, Len: 100, Dur: 10},
		{T: 0, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "lockwait", Peer: -1, Dur: 10},
		{T: 30, Layer: LayerPFS, Kind: KindServe, Peer: 0, Dur: 50},
		{T: 10, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: "transfer", Peer: -1, Dur: 70},
		{T: 80, Layer: LayerLock, Kind: KindLockRelease, Peer: -1, Off: 0, Len: 100, Dur: 5},
	} {
		rec.Emit(e)
	}
	path := CriticalPath(rec.Events())
	if len(path) != 5 {
		t.Fatalf("path = %+v, want all five events", path)
	}
	charged, dark := pathCharges(path)
	want := map[string]sim.VTime{"lock.grant": 10, "phase.span:lockwait": 0, "pfs.serve": 50, "phase.span:transfer": 20, "lock.release": 5}
	if !reflect.DeepEqual(charged, want) || dark != 0 {
		t.Errorf("summary = %v with %d ns charged to nothing, want %v and none", charged, dark, want)
	}
}

// TestCriticalPathStartsAtASpan: recovery replays rank 1's log after the
// run, an instant stamped at the makespan, when rank 0's write finishes.
// The path ends at that write, the work that took the run to its
// makespan, not at the replay on rank 1, whose path would leave rank 1's
// idle end charged to nothing.
func TestCriticalPathStartsAtASpan(t *testing.T) {
	rec := NewRecorder(2, 0)
	rec.Emit(Event{T: 0, Actor: 0, Layer: LayerPFS, Kind: KindServe, Peer: 0, Dur: 100})
	rec.Emit(Event{T: 0, Actor: 1, Layer: LayerPFS, Kind: KindServe, Peer: 1, Dur: 50})
	rec.Emit(Event{T: 100, Actor: 1, Layer: LayerPFS, Kind: KindWALReplay, Peer: -1})
	path := CriticalPath(rec.Events())
	if end := path[len(path)-1]; end.Actor != 0 || end.Kind != KindServe {
		t.Errorf("the path ends at %+v, want rank 0's write", end)
	}
	if _, dark := pathCharges(path); dark != 0 {
		t.Errorf("%d ns of the path are charged to nothing", dark)
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
