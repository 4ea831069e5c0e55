package harness_test

import (
	"runtime"
	"testing"

	"atomio/internal/runner"
)

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
	allocated := map[int]uint64{}
	for _, c := range runner.ScalingGridTo(2048) {
		e := c.Experiment
		if e.Strategy.Name() != "locking" || e.Procs < 1024 {
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
	small, large := allocated[1024], allocated[2048]
	if small == 0 || large == 0 {
		t.Fatalf("scaling grid has no P=1024 and P=2048 locking cells: %v", allocated)
	}
	const maxRatio, maxBytes = 2.5, 64 << 20
	if ratio := float64(large) / float64(small); ratio > maxRatio || large > maxBytes {
		t.Errorf("P=2048 allocated %d bytes, %.2f× the P=1024 cell's %d; ceilings %d bytes and %.1f×",
			large, ratio, small, maxBytes, maxRatio)
	}
}
