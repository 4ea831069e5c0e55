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
func sameTimings(t *testing.T, bare, kept *Result) {
	t.Helper()
	if bare.Makespan == 0 {
		t.Fatal("run charged no time; the comparison is vacuous")
	}
	if bare.Makespan != kept.Makespan || bare.WrittenBytes != kept.WrittenBytes {
		t.Errorf("records off: makespan %v, %d bytes written; on: %v, %d",
			bare.Makespan, bare.WrittenBytes, kept.Makespan, kept.WrittenBytes)
	}
	if !reflect.DeepEqual(bare.RankTimes, kept.RankTimes) {
		t.Errorf("rank times differ: records off %v, on %v", bare.RankTimes, kept.RankTimes)
	}
	if !reflect.DeepEqual(bare.ServerStats, kept.ServerStats) {
		t.Errorf("server stats differ: records off %+v, on %+v", bare.ServerStats, kept.ServerStats)
	}
	if !reflect.DeepEqual(bare.Replayed, kept.Replayed) {
		t.Errorf("replayed ranks differ: records off %v, on %v", bare.Replayed, kept.Replayed)
	}
}

// bothWays runs e keeping no records and keeping who wrote every byte —
// the records Verify turns on, and checks.
func bothWays(t *testing.T, e Experiment) (bare, kept *Result) {
	t.Helper()
	var err error
	e.Verify = false
	if bare, err = e.Run(); err != nil {
		t.Fatalf("records off: %v", err)
	}
	e.Verify = true
	if kept, err = e.Run(); err != nil {
		t.Fatalf("records on: %v", err)
	}
	if kept.Verdict == "" {
		t.Fatal("the verified run reports no verdict")
	}
	return bare, kept
}

// TestPayloadlessRunMatchesStoredRun pins the run that keeps no records to
// the one that keeps who wrote every byte: both carry offsets and lengths
// only, and must charge exactly the same — for every strategy on every
// platform and pattern. Record keeping is bookkeeping, never a cost.
func TestPayloadlessRunMatchesStoredRun(t *testing.T) {
	for _, prof := range platform.All() {
		for _, strat := range append(Methods(prof), core.TwoPhase{}, core.ListIO{}) {
			for _, pat := range []Pattern{ColumnWise, RowWise, BlockBlock} {
				t.Run(prof.Name+"/"+strat.Name()+"/"+pat.String(), func(t *testing.T) {
					bare, kept := bothWays(t, Experiment{
						Platform: prof,
						M:        64, N: 512, Procs: 4, Overlap: 8,
						Pattern:  pat,
						Strategy: strat, // listio implies the capability it needs
					})
					sameTimings(t, bare, kept)
				})
			}
		}
	}
}

// TestPayloadlessRunMatchesStoredRunUnderFaults extends the pin to the fault
// filter and the write-ahead log: dropped stripes, a crashed writer's
// unissued segments and the replay decision do not depend on the records.
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
			e.Faults = &tc.script
			e.Recovery = true
			bare, kept := bothWays(t, e)
			sameTimings(t, bare, kept)
			if len(kept.Replayed) == 0 {
				t.Error("nothing was replayed; the fault did no damage")
			}
		})
	}
}

// TestDatalessCellAllocatesNoPayload is the allocation ceiling on the
// payload-less path, in the unit the path works in: bytes per extent. A
// P=8 column-wise cell of Figure 8 carries 4 096 extents per rank from
// the filetype to the server queues and has nothing else to do on the host,
// so it may allocate the lists it reads — the flattened tile, which is the
// request, the exchanged view and the batch the servers get, and ordering's
// clips and twophase's merged domains — and little more: 16.7 / 16.7 /
// 32.7 / 16.9 B per extent measured for locking / coloring / ordering /
// twophase, whose domains' runs coalesce to a few extents when the file
// keeps no writers (32.9 B while each domain listed a run per writer, 73 B
// while twophase also built routed pieces and a winners map).
// None of it may depend on the array size or the platform: the 1 GB cells
// have the extents of the 128 MB one (a block map made the IBM SP one 28 %
// dearer, and while each cached write marked its blocks readable the
// Origin2000 one, whose rows lie 4 of those 64 KB blocks apart, cost 32.8 /
// 32.7 / 48.7 B). With payload buffers the 128 MB locking cell allocated
// 190 MB, and with a 40 B segment per extent copied from the request
// 57 / 57 / 73 B per extent.
func TestDatalessCellAllocatesNoPayload(t *testing.T) {
	for _, tc := range []struct {
		strategy  core.Strategy
		perExtent float64 // ceiling, bytes
	}{
		{core.Locking{}, 21},
		{core.Coloring{}, 21},
		{core.RankOrder{}, 40},
		{core.TwoPhase{}, 21},
	} {
		t.Run(tc.strategy.Name(), func(t *testing.T) {
			var small float64
			for _, cell := range []struct {
				platform platform.Profile
				n        int
			}{
				{platform.IBMSP(), 32768},       // 128 MB
				{platform.IBMSP(), 262144},      // 1 GB
				{platform.Origin2000(), 262144}, // 1 GB, rows 256 KB apart
			} {
				n := cell.n
				e := Experiment{
					Platform: cell.platform,
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
				t.Logf("%s N=%d: allocated %d bytes in %d objects, %.1f B per extent", e.Platform.Name, n, bytes, objects, perExtent)
				maxBytes := uint64(tc.perExtent * extents)
				if rankPayload := uint64(e.M) * uint64(e.N) / uint64(e.Procs); maxBytes >= rankPayload {
					t.Fatalf("ceiling %d is not below one rank's payload %d", maxBytes, rankPayload)
				}
				const maxObjects = 2000
				if bytes > maxBytes || objects > maxObjects {
					t.Errorf("%s N=%d: data-less cell allocated %d bytes in %d objects, ceilings %d (%v B per extent) and %d",
						e.Platform.Name, n, bytes, objects, maxBytes, tc.perExtent, maxObjects)
				}
				if small == 0 {
					small = perExtent
				} else if perExtent > 1.02*small {
					t.Errorf("the %s 1 GB cell allocates %.1f B per extent, the 128 MB cell %.1f: more than 2 %% apart for the same extents",
						e.Platform.Name, perExtent, small)
				}
			}
		})
	}
}
