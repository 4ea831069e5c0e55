package harness

import (
	"reflect"
	"runtime"
	"testing"

	"atomio/internal/core"
	"atomio/internal/platform"
	"atomio/internal/sim/fault"
)

// sameTimings requires two runs of one cell to agree on everything virtual
// time decides: the makespan, every rank's clock, the written volume and
// every server's traffic and queue state.
func sameTimings(t *testing.T, lengths, bytes *Result) {
	t.Helper()
	if lengths.Makespan == 0 {
		t.Fatal("run charged no time; the comparison is vacuous")
	}
	if lengths.Makespan != bytes.Makespan || lengths.WrittenBytes != bytes.WrittenBytes {
		t.Errorf("StoreData off: makespan %v, %d bytes written; on: %v, %d",
			lengths.Makespan, lengths.WrittenBytes, bytes.Makespan, bytes.WrittenBytes)
	}
	if !reflect.DeepEqual(lengths.RankTimes, bytes.RankTimes) {
		t.Errorf("rank times differ: StoreData off %v, on %v", lengths.RankTimes, bytes.RankTimes)
	}
	if !reflect.DeepEqual(lengths.ServerStats, bytes.ServerStats) {
		t.Errorf("server stats differ: StoreData off %+v, on %+v", lengths.ServerStats, bytes.ServerStats)
	}
	if !reflect.DeepEqual(lengths.Replayed, bytes.Replayed) {
		t.Errorf("replayed ranks differ: StoreData off %v, on %v", lengths.Replayed, bytes.Replayed)
	}
}

// bothWays runs e storing nothing and storing bytes.
func bothWays(t *testing.T, e Experiment) (lengths, bytes *Result) {
	t.Helper()
	var err error
	e.StoreData = false
	if lengths, err = e.Run(); err != nil {
		t.Fatalf("StoreData off: %v", err)
	}
	e.StoreData = true
	if bytes, err = e.Run(); err != nil {
		t.Fatalf("StoreData on: %v", err)
	}
	return lengths, bytes
}

// TestPayloadlessRunMatchesStoredRun pins the payload-less data path to the
// byte-moving one: a run that stores nothing carries offsets and lengths
// only, and must charge exactly what the same cell charges when every byte
// is moved and stored — for every strategy on every platform and pattern.
func TestPayloadlessRunMatchesStoredRun(t *testing.T) {
	for _, prof := range platform.All() {
		for _, strat := range append(Methods(prof), core.TwoPhase{}, core.ListIO{}) {
			for _, pat := range []Pattern{ColumnWise, RowWise, BlockBlock} {
				t.Run(prof.Name+"/"+strat.Name()+"/"+pat.String(), func(t *testing.T) {
					lengths, bytes := bothWays(t, Experiment{
						Platform: prof,
						M:        64, N: 512, Procs: 4, Overlap: 8,
						Pattern:  pat,
						Strategy: strat, // listio implies the capability it needs
					})
					sameTimings(t, lengths, bytes)
				})
			}
		}
	}
}

// TestPayloadlessRunMatchesStoredRunUnderFaults extends the pin to the fault
// filter and the write-ahead log: dropped stripes, a crashed writer's
// unissued segments and the replay decision depend on lengths alone.
func TestPayloadlessRunMatchesStoredRunUnderFaults(t *testing.T) {
	outage := fault.ServerOutage()
	crash := fault.Script{Events: []fault.Event{{Kind: fault.WriterCrash, Owner: 1, Segments: 1}}}
	for _, tc := range []struct {
		name     string
		script   fault.Script
		strategy string
	}{
		{"server-outage", outage, "locking"},
		{"server-outage", outage, "ordering"},
		{"server-outage", outage, "twophase"},
		{"writer-crash", crash, "locking"},
		{"writer-crash", crash, "twophase"},
	} {
		t.Run(tc.name+"/"+tc.strategy, func(t *testing.T) {
			e := faultExperiment(tc.strategy)
			e.Verify = false
			e.Faults = &tc.script
			e.Recovery = true
			lengths, bytes := bothWays(t, e)
			sameTimings(t, lengths, bytes)
			if len(bytes.Replayed) == 0 {
				t.Error("nothing was replayed; the fault did no damage")
			}
		})
	}
}

// TestDatalessCellAllocatesNoPayload is the allocation ceiling on the
// payload-less path, in the unit the path works in: bytes per extent. An
// IBM SP P=8 column-wise cell of Figure 8 carries 4 096 extents per rank from
// the filetype to the server queues and has nothing else to do on the host,
// so it may allocate the lists it reads — the flattened tile, which is the
// request, the exchanged view and the batch the servers get, and ordering's
// clips — and little more: 16.8 / 16.8 / 32.7 B per extent measured for
// locking / coloring / ordering, and 97 B for twophase, whose routed
// pieces, ownership runs and merged domain list are lists of their own.
// None of it may depend on the array size: the 1 GB cell has the extents of
// the 128 MB one (a block map made it 28 % dearer). With payload buffers
// the 128 MB locking cell allocated 190 MB, and with a 40 B segment per
// extent copied from the request 57 / 57 / 73 B per extent.
func TestDatalessCellAllocatesNoPayload(t *testing.T) {
	for _, tc := range []struct {
		strategy  core.Strategy
		perExtent float64 // ceiling, bytes
	}{
		{core.Locking{}, 21},
		{core.Coloring{}, 21},
		{core.RankOrder{}, 40},
		{core.TwoPhase{}, 120},
	} {
		t.Run(tc.strategy.Name(), func(t *testing.T) {
			var small float64
			for _, n := range []int{32768, 262144} { // 128 MB, 1 GB
				e := Experiment{
					Platform: platform.IBMSP(),
					M:        Figure8M, N: n, Procs: 8, Overlap: Figure8Overlap,
					Pattern:  ColumnWise,
					Strategy: tc.strategy,
				}
				if _, err := e.Run(); err != nil { // warm up lazy runtime state
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
				extents := float64(e.M * e.Procs)
				perExtent := float64(bytes) / extents
				t.Logf("N=%d: allocated %d bytes in %d objects, %.1f B per extent", n, bytes, objects, perExtent)
				maxBytes := uint64(tc.perExtent * extents)
				if rankPayload := uint64(e.M) * uint64(e.N) / uint64(e.Procs); maxBytes >= rankPayload {
					t.Fatalf("ceiling %d is not below one rank's payload %d", maxBytes, rankPayload)
				}
				const maxObjects = 2000
				if bytes > maxBytes || objects > maxObjects {
					t.Errorf("N=%d: data-less cell allocated %d bytes in %d objects, ceilings %d (%v B per extent) and %d",
						n, bytes, objects, maxBytes, tc.perExtent, maxObjects)
				}
				if small == 0 {
					small = perExtent
				} else if perExtent > 1.02*small {
					t.Errorf("the 1 GB cell allocates %.1f B per extent, the 128 MB cell %.1f: more than 2 %% apart for the same extents",
						perExtent, small)
				}
			}
		})
	}
}
