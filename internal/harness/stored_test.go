package harness_test

import (
	"runtime"
	"testing"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/platform"
)

// TestStoredCellAllocatesWhatItStores holds the stored-byte path where
// wall-clock cannot be asserted: a stored and verified 32 MB P=16
// column-wise cell moves 38 MB of rank payload into a 32 MB file, and a
// path that zeroes a 64 KB cache block per 576-byte piece, or keeps a
// sparse chunk map per affinity server, allocates ten to thirty times that
// (716 MB for IBM SP coloring, 1 103 MB for Cplant ordering). With the
// cache lending the ranks' own slices and affinity servers keeping each
// write's bytes the cells measure 120 MB and 150 MB.
//
// The object count is the per-piece bookkeeping: ~129 300 and ~260 200
// objects while the written set returned each add's newly covered parts and
// the verifier kept a map entry and a byte slice per atom; ~1 860 and
// ~132 710 with a set that sorts on read and clean atoms that allocate
// nothing. What Cplant has left is each affinity write's own record.
func TestStoredCellAllocatesWhatItStores(t *testing.T) {
	cells := []struct {
		prof       platform.Profile
		strategy   core.Strategy
		maxBytes   uint64
		maxObjects uint64
	}{
		{platform.IBMSP(), core.Coloring{}, 200 << 20, 4_000},
		{platform.Cplant(), core.RankOrder{}, 250 << 20, 265_000},
	}
	for i, c := range cells {
		e := harness.Experiment{
			Platform: c.prof,
			M:        harness.Figure8M, N: 8192, Procs: 16, Overlap: harness.Figure8Overlap,
			Pattern:   harness.ColumnWise,
			Strategy:  c.strategy,
			StoreData: true, Verify: true,
		}
		if i == 0 {
			if _, err := e.Run(); err != nil { // warm up lazy runtime state
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !res.Report.Atomic() || res.Report.Atoms == 0 {
			t.Fatalf("%s %s: verdict %q over %d atoms", c.prof.Name, c.strategy.Name(), res.Verdict, res.Report.Atoms)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		objects := after.Mallocs - before.Mallocs
		t.Logf("%s %s allocated %d bytes in %d objects", c.prof.Name, c.strategy.Name(), allocated, objects)
		if allocated > c.maxBytes {
			t.Errorf("%s %s: stored cell allocated %d bytes, ceiling %d", c.prof.Name, c.strategy.Name(), allocated, c.maxBytes)
		}
		if objects > c.maxObjects {
			t.Errorf("%s %s: stored cell allocated %d objects, ceiling %d", c.prof.Name, c.strategy.Name(), objects, c.maxObjects)
		}
	}
}
