package runner

import (
	"fmt"
	"strings"
	"testing"

	"atomio/internal/core"
	"atomio/internal/harness"
)

// TestFigure8GridShape pins the canonical evaluation grid: 3 sizes × 3
// platforms × 3 process counts, with locking absent on Cplant (2 strategies
// there, 3 elsewhere) — 72 cells with unique panel-layout IDs.
func TestFigure8GridShape(t *testing.T) {
	cells := Figure8Grid().Cells()
	if len(cells) != 72 {
		t.Fatalf("got %d cells, want 72", len(cells))
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
		if strings.HasPrefix(c.ID, "Cplant/") && strings.HasSuffix(c.ID, "/locking") {
			t.Errorf("Cplant cell %s uses locking", c.ID)
		}
		if c.Experiment.M != harness.Figure8M || c.Experiment.Overlap != harness.Figure8Overlap {
			t.Errorf("cell %s has M=%d R=%d", c.ID, c.Experiment.M, c.Experiment.Overlap)
		}
	}
	// The enumeration order is the paper's panel layout: sizes down
	// (outermost), platforms across in Table 1 order.
	if !strings.HasPrefix(cells[0].ID, "Cplant/32 MB/") {
		t.Errorf("first cell %s is not the Cplant 32 MB panel's", cells[0].ID)
	}
	if !strings.HasPrefix(cells[len(cells)-1].ID, "IBM SP/1 GB/") {
		t.Errorf("last cell %s is not the IBM SP 1 GB panel's", cells[len(cells)-1].ID)
	}
}

// TestGridListIO checks listio cells run without anyone granting them the
// atomic vectored-write capability: the strategy implies it inside the
// harness, and the grid copies Base without a per-strategy special case.
func TestGridListIO(t *testing.T) {
	g := smallGrid()
	g.Strategies = []core.Strategy{core.RankOrder{}, core.ListIO{}}
	cells := g.Cells()
	for _, c := range cells {
		if c.Experiment.AtomicListIO {
			t.Errorf("cell %s sets AtomicListIO; the harness derives it", c.ID)
		}
	}
	if err := FirstErr(Run(cells, Options{Workers: 2})); err != nil {
		t.Fatal(err)
	}
}

func TestScalingGridCells(t *testing.T) {
	cells := ScalingGrid()
	if len(cells) != len(ScalingPoints)*4 {
		t.Fatalf("cells = %d, want %d points x 4 strategies", len(cells), len(ScalingPoints))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
		e := c.Experiment
		if e.N%e.Procs != 0 {
			t.Fatalf("%s: N=%d not divisible by P=%d", c.ID, e.N, e.Procs)
		}
		if w := e.N / e.Procs; ScalingOverlap > w {
			t.Fatalf("%s: overlap %d exceeds partition width %d", c.ID, ScalingOverlap, w)
		}
		if e.StoreData || e.Verify {
			t.Fatalf("%s: scaling cells must run data-less", c.ID)
		}
	}
	// The grid must actually reach P=1024 and thousands of extents/rank.
	var maxP, maxM int
	for _, pt := range ScalingPoints {
		if pt.Procs > maxP {
			maxP = pt.Procs
		}
		if pt.M > maxM {
			maxM = pt.M
		}
	}
	if maxP < 1024 || maxM < 1024 {
		t.Fatalf("scaling points too small: maxP=%d maxM=%d", maxP, maxM)
	}
}

// TestScalingSmallestCellRuns executes the smallest scaling point end to
// end per strategy, so the grid shape is known-runnable (the full grid is
// exercised by the -scale command and BenchmarkScaling).
func TestScalingSmallestCellRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation cell")
	}
	for _, c := range ScalingGrid() {
		e := c.Experiment
		if e.Procs != ScalingPoints[0].Procs {
			continue
		}
		e.M = 128 // shrink rows: same shape, quick run
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if res.Makespan <= 0 || res.BandwidthMBs <= 0 {
			t.Fatalf("%s: degenerate result %+v", c.ID, res)
		}
	}
}

// TestScalingGridShape checks the paper's qualitative Figure 8 claims on
// the scaling grid, where every point moves the same 16 MB: at every P,
// ordering is at least as fast as coloring and both beat locking; locking
// does not gain from more processes; and two-phase I/O, which turns every
// rank's non-contiguous request into one write per domain, beats them all.
// (Unlike Figure 8's fixed-shape panels, the handshakes do not rise here:
// their P² traffic grows while the file does not.)
func TestScalingGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scaling grid")
	}
	bw := map[string]map[int]float64{} // strategy -> P -> MB/s
	for _, r := range Run(ScalingGrid(), Options{Workers: 2}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Cell.ID, r.Err)
		}
		name := r.Cell.Experiment.Strategy.Name()
		if bw[name] == nil {
			bw[name] = map[int]float64{}
		}
		bw[name][r.Cell.Experiment.Procs] = r.Result.BandwidthMBs
	}
	first := ScalingPoints[0].Procs
	for _, pt := range ScalingPoints {
		p := pt.Procs
		lock, col, ord, two := bw["locking"][p], bw["coloring"][p], bw["ordering"][p], bw["twophase"][p]
		if !(lock < col && col <= ord && ord < two) {
			t.Errorf("P=%d: want locking < coloring <= ordering < twophase, got %.2f / %.2f / %.2f / %.2f MB/s",
				p, lock, col, ord, two)
		}
		if lock > bw["locking"][first]*1.1 {
			t.Errorf("locking gains from processes: P=%d %.2f MB/s against P=%d %.2f", p, lock, first, bw["locking"][first])
		}
	}
}

// TestShardSweepGridRuns pins the four cell IDs the benchmark's lock-scale
// workload names and checks that the four identical cells run to the same
// simulated result.
func TestShardSweepGridRuns(t *testing.T) {
	cells := ShardSweepGrid()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for i, s := range []int{1, 2, 4, 8} {
		if want := fmt.Sprintf("Origin2000/512x4096+S%d/P64/locking", s); cells[i].ID != want {
			t.Errorf("cell %d has ID %q, want %q", i, cells[i].ID, want)
		}
	}
	if testing.Short() {
		t.Skip("full simulation cells")
	}
	results := Run(cells, Options{Workers: 2})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	recs := Records(results)
	for _, r := range recs {
		if r.MakespanNS != recs[0].MakespanNS || r.BandwidthMBs != recs[0].BandwidthMBs {
			t.Fatalf("identical cells differ: %+v vs %+v", r, recs[0])
		}
	}
}

func TestDegradedGridShape(t *testing.T) {
	cells := DegradedGrid()
	// 4 scenarios × 2 process counts × 2 Cplant strategies.
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
		if c.Experiment.Scenario == nil {
			t.Fatalf("cell %s has no scenario", c.ID)
		}
		if !strings.Contains(c.ID, "+"+c.Experiment.Scenario.Name+"/") {
			t.Fatalf("cell %s does not carry scenario %q", c.ID, c.Experiment.Scenario.Name)
		}
	}
	smoke := DegradedSmokeCell()
	if !smoke.Experiment.Scenario.Perturbs() || smoke.Experiment.Procs != 4 {
		t.Fatalf("smoke cell %s is not a smallest perturbing cell", smoke.ID)
	}
}

func TestDegradedSmokeCellRunsWithStats(t *testing.T) {
	cell := DegradedSmokeCell()
	results := Run([]Cell{cell}, Options{Workers: 1})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	recs := Records(results)
	r := recs[0]
	if r.Scenario == "" || r.Scenario == "healthy" {
		t.Fatalf("smoke record scenario = %q, want a perturbing scenario", r.Scenario)
	}
	if len(r.ServerStats) == 0 {
		t.Fatal("smoke record has no per-server stats columns")
	}
	var bytes int64
	for _, s := range r.ServerStats {
		bytes += s.Bytes
		if s.BusyNS < 0 || s.FreeAtNS < s.BusyNS {
			t.Fatalf("implausible server stat %+v", s)
		}
	}
	if bytes < r.WrittenBytes {
		t.Fatalf("server stats account %d bytes, cell wrote %d", bytes, r.WrittenBytes)
	}
}
