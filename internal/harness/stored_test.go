package harness_test

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/platform"
	"atomio/internal/verify"
)

// TestStoredCellAllocatesWhatItStores holds the stored path where
// wall-clock cannot be asserted: a stored and verified 32 MB P=16
// column-wise cell writes 38 MB of rank data into a 32 MB file, and the
// store keeps who wrote it, not the bytes. A path that zeroes a 64 KB cache
// block per 576-byte piece, or keeps a sparse chunk map per server,
// allocated 716 MB for IBM SP coloring and 1 103 MB for Cplant ordering;
// with every rank lending one shared buffer that each server's records
// copied, 50 MB and 46 MB. With no payload the cells measure 7.6 MB and
// 8.4 MB: write records, cache block lists and the verifier's atoms.
//
// The object count is the per-piece bookkeeping: ~129 300 and ~260 200
// objects while the written set returned each add's newly covered parts and
// the verifier kept a map entry and a byte slice per atom; ~1 860 and
// ~132 710 while Cplant's servers kept a record per extent; ~2 000 and
// ~1 100 with a record per (write call, server) holding bytes; ~1 570 and
// ~1 000 with records of extents and writers alone.
func TestStoredCellAllocatesWhatItStores(t *testing.T) {
	cells := []struct {
		prof       platform.Profile
		strategy   core.Strategy
		maxBytes   uint64
		maxObjects uint64
	}{
		{platform.IBMSP(), core.Coloring{}, 12 << 20, 3_000},
		{platform.Cplant(), core.RankOrder{}, 12 << 20, 2_000},
	}
	for i, c := range cells {
		e := harness.Experiment{
			Platform: c.prof,
			M:        harness.Figure8M, N: 8192, Procs: 16, Overlap: harness.Figure8Overlap,
			Pattern:  harness.ColumnWise,
			Strategy: c.strategy,
			Verify:   true,
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

// TestStoredCellPastMarkerWrap runs a stored, verified column-wise cell at
// P=1024 — four times the ranks a marker byte tells apart — for all five
// strategies. Each must be serializable over its m·(P−1) atoms, which holds
// every atom's winner to the two ranks whose columns meet there, by exact
// id. Where the strategy's rule picks the winner — coloring's two colors
// write the even ranks before the odd ones (Figure 5), ordering and
// two-phase I/O serialize in rank order — the report's Outcome must hash
// the winners it picks.
func TestStoredCellPastMarkerWrap(t *testing.T) {
	const m, p, w, r = 2, 1024, 4, 2
	for _, s := range []core.Strategy{core.Locking{}, core.Coloring{}, core.RankOrder{}, core.TwoPhase{}, core.ListIO{}} {
		e := harness.Experiment{
			Platform: platform.IBMSP(),
			M:        m, N: p * w, Procs: p, Overlap: r,
			Pattern:  harness.ColumnWise,
			Strategy: s,
			Verify:   true,
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != verify.Serializable || res.Report.Atoms != m*(p-1) {
			t.Fatalf("%s: verdict %q over %d atoms, want %d", s.Name(), res.Verdict, res.Report.Atoms, m*(p-1))
		}
		var pick func(high int) int // the winner between ranks high-1 and high
		switch s.Name() {
		case "coloring":
			pick = func(high int) int { return high - 1 + high%2 }
		case "ordering", "twophase":
			pick = func(high int) int { return high }
		default:
			continue
		}
		views, err := e.Views()
		if err != nil {
			t.Fatal(err)
		}
		var atoms []interval.Extent // with no records, each sweep piece of two or more views is one
		index.Sweep(nil, views, func(p *index.Piece) {
			if len(p.Views) >= 2 {
				atoms = append(atoms, p.Extent)
			}
		})
		h := fnv.New64a()
		for _, atom := range atoms {
			high := int(atom.Off%(p*w)+r/2) / w // the columns of ranks high-1 and high meet here
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(pick(high))))
		}
		if h.Sum64() != res.Report.Outcome {
			t.Fatalf("%s: outcome %x, want %x, that of the winners its rule picks", s.Name(), res.Report.Outcome, h.Sum64())
		}
	}
}
