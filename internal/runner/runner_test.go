package runner

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/interval"
	"atomio/internal/platform"
)

// smallGrid is a fast multi-cell grid covering all three platforms.
func smallGrid() Grid {
	return Grid{
		Platforms:       platform.All(),
		Sizes:           []Size{{M: 64, N: 256, Label: "16 KB"}},
		Procs:           []int{2, 4},
		SkipUnsupported: true,
		Base:            harness.Experiment{Overlap: 4, Pattern: harness.ColumnWise, StoreData: true},
	}
}

// TestRunOrderDeterministic runs the same grid with one worker and many
// workers: results must arrive in cell order with identical simulated
// metrics — parallelism is a wall-clock optimization only.
func TestRunOrderDeterministic(t *testing.T) {
	cells := smallGrid().Cells()
	if len(cells) < 8 {
		t.Fatalf("want a multi-cell grid, got %d cells", len(cells))
	}
	seq := Run(cells, Options{Workers: 1})
	par := Run(cells, Options{Workers: 8})
	if len(seq) != len(cells) || len(par) != len(cells) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(cells))
	}
	for i := range cells {
		if seq[i].Cell.ID != cells[i].ID || par[i].Cell.ID != cells[i].ID {
			t.Fatalf("result %d out of order: seq=%s par=%s want=%s",
				i, seq[i].Cell.ID, par[i].Cell.ID, cells[i].ID)
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %s failed: seq=%v par=%v", cells[i].ID, seq[i].Err, par[i].Err)
		}
		s, p := seq[i].Result, par[i].Result
		if s.Makespan != p.Makespan || s.WrittenBytes != p.WrittenBytes ||
			math.Abs(s.BandwidthMBs-p.BandwidthMBs) > 1e-12 {
			t.Errorf("cell %s differs across worker counts: seq={%v %d %.6f} par={%v %d %.6f}",
				cells[i].ID, s.Makespan, s.WrittenBytes, s.BandwidthMBs,
				p.Makespan, p.WrittenBytes, p.BandwidthMBs)
		}
	}
}

// TestRunRepeatable runs the same grid twice — once sequentially, once
// concurrently — and requires identical simulated metrics: the engine's
// (virtual time, actor id) admission order makes every cell's virtual
// timings independent of host scheduling, which is what lets
// `figure8 -workers N` reproduce `-workers 1` byte for byte. The grid
// includes locking cells on both the central (Origin2000) and distributed
// (IBM SP) lock managers, and one cell of each structure that lost its
// mutex when the engine went single-threaded: TwoPhase (Comm.Shared and
// Alltoall), list I/O (the file's listio queue) and a traced cell (the pfs
// queue-depth gauge). Under -race this shows
// that no such structure is shared between cells on different workers.
func TestRunRepeatable(t *testing.T) {
	cells := smallGrid().Cells()
	base := harness.Experiment{
		Platform: platform.Origin2000(), M: 64, N: 256, Procs: 4, Overlap: 4,
		Pattern: harness.ColumnWise, StoreData: true,
	}
	twophase, listio, traced := base, base, base
	twophase.Strategy = core.TwoPhase{}
	listio.Strategy = core.ListIO{}
	traced.Strategy, traced.TraceEvents = core.Locking{}, true
	for _, e := range []harness.Experiment{twophase, listio, traced} {
		cells = append(cells, Cell{ID: fmt.Sprintf("extra-%d", len(cells)), Experiment: e})
	}
	seq := Run(cells, Options{Workers: 1})
	if err := FirstErr(seq); err != nil {
		t.Fatal(err)
	}
	a, b := Records(seq), Records(Run(cells, Options{Workers: 8}))
	for i := range a {
		a[i].WallNS, b[i].WallNS = 0, 0 // real time legitimately differs
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeat run differs:\n a=%+v\n b=%+v", a, b)
	}
}

// TestRunFailingCellIsolated checks that a failing cell reports its error
// in place while sibling cells still produce results.
func TestRunFailingCellIsolated(t *testing.T) {
	good := harness.Experiment{
		Platform: platform.Origin2000(), M: 64, N: 256, Procs: 2, Overlap: 4,
		Pattern: harness.ColumnWise, Strategy: core.RankOrder{}, StoreData: true,
	}
	bad := good
	bad.Platform = platform.Cplant() // no lock manager
	bad.Strategy = core.Locking{}
	cells := []Cell{
		{ID: "good-0", Experiment: good},
		{ID: "bad", Experiment: bad},
		{ID: "good-1", Experiment: good},
	}
	results := Run(cells, Options{Workers: 3})
	if results[1].Err == nil {
		t.Error("bad cell: want error, got nil")
	}
	if results[1].Result != nil {
		t.Error("bad cell: want nil result alongside error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("sibling %s aborted: %v", results[i].Cell.ID, results[i].Err)
		}
		if results[i].Result == nil || results[i].Result.BandwidthMBs <= 0 {
			t.Errorf("sibling %s missing result", results[i].Cell.ID)
		}
	}
	if err := FirstErr(results); err == nil {
		t.Error("FirstErr: want non-nil")
	}
}

// panicStrategy blows up inside the simulated ranks.
type panicStrategy struct{}

func (panicStrategy) Name() string { return "panic" }
func (panicStrategy) WriteAll(*core.Context, []byte, interval.List) error {
	panic("deliberate test panic")
}

// TestRunPanickingCellIsolated checks that a cell whose strategy panics is
// captured as an error without taking down the pool.
func TestRunPanickingCellIsolated(t *testing.T) {
	good := harness.Experiment{
		Platform: platform.Origin2000(), M: 64, N: 256, Procs: 2, Overlap: 4,
		Pattern: harness.ColumnWise, Strategy: core.RankOrder{}, StoreData: true,
	}
	boom := good
	boom.Strategy = panicStrategy{}
	results := Run([]Cell{
		{ID: "boom", Experiment: boom},
		{ID: "good", Experiment: good},
	}, Options{Workers: 2})
	if results[0].Err == nil {
		t.Error("panicking cell: want error, got nil")
	}
	if results[1].Err != nil {
		t.Errorf("sibling failed: %v", results[1].Err)
	}
}

// TestRunProgress checks the progress callback fires once per cell with a
// monotonically increasing done count.
func TestRunProgress(t *testing.T) {
	cells := smallGrid().Cells()
	var mu sync.Mutex
	var calls int
	results := Run(cells, Options{Workers: 4, Progress: func(done, total int, r CellResult) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done != calls {
			t.Errorf("done=%d on call %d", done, calls)
		}
		if total != len(cells) {
			t.Errorf("total=%d, want %d", total, len(cells))
		}
		if r.Cell.ID == "" {
			t.Error("progress delivered empty cell")
		}
	}})
	if calls != len(cells) {
		t.Errorf("progress fired %d times, want %d", calls, len(cells))
	}
	if len(results) != len(cells) {
		t.Errorf("got %d results, want %d", len(results), len(cells))
	}
}

// TestRunEmpty ensures a zero-cell grid is a no-op, not a hang.
func TestRunEmpty(t *testing.T) {
	if got := Run(nil, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) returned %d results", len(got))
	}
}
