package harness_test

import (
	"runtime"
	"testing"

	"atomio/internal/runner"
)

// scalingAllocation runs the strategy's P=1024 and P=2048 scaling cells and
// returns the bytes each allocated, by P.
func scalingAllocation(t *testing.T, strategy string) (small, large uint64) {
	t.Helper()
	allocated := map[int]uint64{}
	for _, c := range runner.ScalingGridTo(2048) {
		e := c.Experiment
		if e.Strategy.Name() != strategy || e.Procs < 1024 {
			continue
		}
		if len(allocated) == 0 {
			if _, err := e.Run(); err != nil { // warm up lazy runtime state
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated[e.Procs] = after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocated %d bytes", c.ID, allocated[e.Procs])
	}
	small, large = allocated[1024], allocated[2048]
	if small == 0 || large == 0 {
		t.Fatalf("scaling grid has no P=1024 and P=2048 %s cells: %v", strategy, allocated)
	}
	return small, large
}

// checkLinear fails when the P=2048 cell allocated more than maxRatio times
// the P=1024 cell, or more than maxBytes.
func checkLinear(t *testing.T, small, large uint64, maxRatio float64, maxBytes uint64) {
	t.Helper()
	if ratio := float64(large) / float64(small); ratio > maxRatio || large > maxBytes {
		t.Errorf("P=2048 allocated %d bytes, %.2f× the P=1024 cell's %d; ceilings %d bytes and %.1f×",
			large, ratio, small, maxBytes, maxRatio)
	}
}

// TestLockingCellAllocationGrowsLinearly holds the lock hand-off's
// allocation behaviour where no analyzer can see it: in the IBM SP scaling
// cells every rank's locked span overlaps every other's, so the P writers
// hand one lock down a chain, and a request that rebuilt anything sized by
// its waiters made the cell's allocation quadratic in P (a per-release wake
// heap, a sorted holder list per token request and a rebuilt release
// history: 78 MB at P=1024, 279 MB at P=2048, 3.6×). With per-waiter
// conflict counts and in-place updates only the per-rank setup grows
// (20 MB, 29 MB); the ceilings leave that room and no more.
func TestLockingCellAllocationGrowsLinearly(t *testing.T) {
	small, large := scalingAllocation(t, "locking")
	checkLinear(t, small, large, 2.5, 64<<20)
}

// TestHandshakeCellAllocationGrowsLinearly holds the same line for the
// strategies whose handshake algebra once held P² cells. Coloring's overlap
// matrix was a [][]bool with a P-sized scratch per rank colored (14 MB at
// P=1024, 23 MB at P=2048, 1.6×); two-phase I/O built P parts and P file
// domains on every rank and sent P-1 messages from each (246 MB, 877 MB,
// 3.6×). With adjacency rows, arithmetic domains and a sparse alltoall
// solved at one rendezvous only the per-rank setup grows. Once the writes
// stopped copying their extents into segments, coloring's cell fell to
// 3.4 MB and 6.2 MB (1.82×: what is left is mostly per-rank setup, so the
// ceiling is linear, 2×) and two-phase's to 19 MB and 22 MB (1.15×, under
// the 1.5× it was held to before); the byte ceilings catch a P² matrix.
func TestHandshakeCellAllocationGrowsLinearly(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		maxRatio float64
		maxBytes uint64
	}{{"coloring", 2.0, 8 << 20}, {"twophase", 1.5, 32 << 20}} {
		t.Run(tc.strategy, func(t *testing.T) {
			small, large := scalingAllocation(t, tc.strategy)
			checkLinear(t, small, large, tc.maxRatio, tc.maxBytes)
		})
	}
}

// TestLockingCellAllocatesFewObjectsPerRank bounds the heap objects one
// locking scaling cell allocates per rank, at P=1024 and P=4096, and logs
// the P=64 cell's, where the cell's own objects weigh more. Each rank
// opens a file, sets a column-wise view and writes it under one lock, and
// the objects it keeps or throws away along that path are what the bound
// counts: 41–42 per rank while Open flattened a default view that SetView
// replaced, a subarray kept three coordinate slices and flattened with
// heap scratch, the world held a pointer per mailbox and clock, a message
// and a blocked receive's pattern were objects of their own and each
// client allocated its write-behind cache and its server tally apart;
// 25–26 while each rank's communicators, file client, write context and
// first message queue were objects of their own, its subarray was boxed
// and its lock, waiter and index node were allocated per request; 16–17
// without them (18 under the race detector), about nine of them
// iter.Pull's, the rank's coroutine.
func TestLockingCellAllocatesFewObjectsPerRank(t *testing.T) {
	const maxPerRank = 20
	for _, c := range runner.ScalingGridTo(4096) {
		e := c.Experiment
		if e.Strategy.Name() != "locking" || (e.Procs != 64 && e.Procs != 1024 && e.Procs != 4096) {
			continue
		}
		// Warm up lazy runtime state, such as the goroutines a cell's
		// coroutines reuse, as the cell's repeated runs find it.
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRank := float64(after.Mallocs-before.Mallocs) / float64(e.Procs)
		t.Logf("%s: %.1f objects per rank", c.ID, perRank)
		if e.Procs >= 1024 && perRank > maxPerRank {
			t.Errorf("%s allocated %.1f objects per rank; ceiling %d", c.ID, perRank, maxPerRank)
		}
	}
}

// TestTwoPhaseCellAllocatesFewObjectsPerRank bounds the heap objects the
// P=64 two-phase scaling cell allocates per rank: 86 while the collective
// built one winners map of the whole file, each sender copied its request
// into routed piece lists and each owner walked them against the map; 24
// (26 under the race detector) once each aggregator merges its own domain
// from the shared views.
func TestTwoPhaseCellAllocatesFewObjectsPerRank(t *testing.T) {
	const maxPerRank = 30
	for _, c := range runner.ScalingGridTo(64) {
		e := c.Experiment
		if e.Strategy.Name() != "twophase" {
			continue
		}
		if _, err := e.Run(); err != nil { // warm up, as TestLockingCellAllocatesFewObjectsPerRank does
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRank := float64(after.Mallocs-before.Mallocs) / float64(e.Procs)
		t.Logf("%s: %.1f objects per rank", c.ID, perRank)
		if perRank > maxPerRank {
			t.Errorf("%s allocated %.1f objects per rank; ceiling %d", c.ID, perRank, maxPerRank)
		}
	}
}
