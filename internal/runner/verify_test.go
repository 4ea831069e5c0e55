package runner

import (
	"runtime"
	"testing"

	"atomio/internal/verify"
)

// TestEveryFigure8AndScalingCellVerifies checks the paper's claim on every
// cell it is made for: all 72 Figure 8 cells, the 1 GB ones included, and
// the scaling grid to P=1024, each stored and verified, must be
// serializable. Verification reads who wrote each byte from the write
// records and no cell carries a payload, so on a 2-vCPU host the test takes
// ~2.6 s (~16 s under -race). The grid to P=4096 would take ~4.4 s and
// ~41 s under -race, so those cells stay out of this test.
func TestEveryFigure8AndScalingCellVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 72 Figure 8 and 12 scaling cells")
	}
	cells := append(Figure8Grid().Cells(), ScalingGridTo(1024)...)
	if len(cells) != 72+12 {
		t.Fatalf("%d cells, want 72 Figure 8 and 12 scaling cells", len(cells))
	}
	for i := range cells {
		cells[i].Experiment.Verify = true
	}
	for _, r := range Run(cells, Options{Workers: 2}) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Cell.ID, r.Err)
			continue
		}
		if rep := r.Result.Report; r.Result.Verdict != verify.Serializable || rep.Atoms == 0 {
			t.Errorf("%s: verdict %q over %d atoms", r.Cell.ID, r.Result.Verdict, rep.Atoms)
		}
	}
}

// TestVerifiedFigure8AllocatesLikeThePlainGrid holds what verification
// costs the host: the 72 Figure 8 cells, stored and verified, allocate at
// most 1.5 times what the plain grid does. When the checker built the
// file's owner runs and a winner per view extent as lists the verified grid
// allocated 4.7 times as much (336 MB against 72 MB); streamed, it
// allocates 1.16 times (83 MB).
func TestVerifiedFigure8AllocatesLikeThePlainGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 72 Figure 8 cells twice")
	}
	allocated := func(verified bool) uint64 {
		cells := Figure8Grid().Cells()
		for i := range cells {
			cells[i].Experiment.Verify = verified
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range Run(cells, Options{Workers: 1}) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Cell.ID, r.Err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, verified := allocated(false), allocated(true)
	t.Logf("plain grid %d bytes, verified %d bytes (%.2f×)", plain, verified, float64(verified)/float64(plain))
	if float64(verified) > 1.5*float64(plain) {
		t.Errorf("the verified Figure 8 grid allocated %d bytes, %.2f× the plain grid's %d; ceiling 1.5×",
			verified, float64(verified)/float64(plain), plain)
	}
}
