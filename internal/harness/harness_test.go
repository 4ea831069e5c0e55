package harness

import (
	"errors"
	"strings"
	"testing"

	"atomio/internal/core"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/trace"
)

func TestExperimentVerifiedSmall(t *testing.T) {
	// Every strategy on every platform produces MPI-atomic file content.
	for _, prof := range platform.All() {
		for _, strat := range Methods(prof) {
			t.Run(prof.Name+"/"+strat.Name(), func(t *testing.T) {
				res, err := Experiment{
					Platform: prof,
					M:        64,
					N:        512,
					Procs:    4,
					Overlap:  8,
					Pattern:  ColumnWise,
					Strategy: strat,
					Verify:   true,
				}.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Report == nil || !res.Report.Atomic() {
					t.Fatalf("atomicity violated: %+v", res.Report)
				}
				if res.Report.Atoms == 0 {
					t.Fatal("no overlap atoms; test vacuous")
				}
				if res.BandwidthMBs <= 0 || res.Makespan <= 0 {
					t.Fatalf("degenerate result: %+v", res)
				}
			})
		}
	}
}

func TestExperimentRejectsLockingWithoutManager(t *testing.T) {
	_, err := Experiment{
		Platform: platform.Cplant(),
		M:        64, N: 512, Procs: 4, Overlap: 8,
		Strategy: core.Locking{},
	}.Run()
	if !errors.Is(err, core.ErrNoLockManager) {
		t.Fatalf("err = %v, want ErrNoLockManager", err)
	}
}

// TestRunValidatesBeforeBuilding checks a hand-built experiment — one that
// never went through the facade's New — is still refused before anything is
// sized from an absurd value: each of these but the last ran the process out
// of memory when Run built the file system, lock tables and ranks
// unchecked. The last, a bounded trace, would keep every event instead.
func TestRunValidatesBeforeBuilding(t *testing.T) {
	base := Experiment{
		Platform: platform.Origin2000(), M: 1, N: 1 << 22, Procs: 4,
		Pattern: ColumnWise, Strategy: core.Locking{},
	}
	for want, mutate := range map[string]func(*Experiment){
		"servers":       func(e *Experiment) { e.Servers = MaxServers + 1 },
		"process count": func(e *Experiment) { e.Procs = 1 << 22 },
		"array shape":   func(e *Experiment) { e.M = 1 << 62 },
		"at most 65536": func(e *Experiment) { e.Steps = 1 << 40 },
		"steps of a":    func(e *Experiment) { e.M, e.Steps = 1<<26, MaxSteps },
		"0 (every event) or -1 (metrics only), got 16": func(e *Experiment) { e.TraceEvents, e.EventLimit = true, 16 },
	} {
		e := base
		mutate(&e)
		if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run with absurd %s: err = %v, want an error naming it", want, err)
		}
	}
	// The bounds themselves are runnable values, not off-by-one rejections.
	e := base
	e.Servers, e.Steps = MaxServers, MaxSteps
	if err := e.Validate(); err != nil {
		t.Errorf("experiment at the bounds: %v", err)
	}
}

func TestExperimentPatterns(t *testing.T) {
	for _, pat := range []Pattern{ColumnWise, RowWise, BlockBlock} {
		res, err := Experiment{
			Platform: platform.Origin2000(),
			M:        64, N: 256, Procs: 4, Overlap: 4,
			Pattern:  pat,
			Strategy: core.RankOrder{},
			Verify:   true,
		}.Run()
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if !res.Report.Atomic() {
			t.Fatalf("%s: violations %v", pat, res.Report.Violations)
		}
	}
	if _, err := (Experiment{
		Platform: platform.Origin2000(),
		M:        64, N: 256, Procs: 6, Overlap: 4,
		Pattern:  BlockBlock,
		Strategy: core.RankOrder{},
	}).Run(); err == nil {
		t.Fatal("block-block with non-square P should fail")
	}
}

func TestOrderingWritesFewerBytes(t *testing.T) {
	base := Experiment{
		Platform: platform.Origin2000(),
		M:        256, N: 4096, Procs: 8, Overlap: 32,
	}
	withStrategy := func(s core.Strategy) int64 {
		e := base
		e.Strategy = s
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.WrittenBytes
	}
	coloringBytes := withStrategy(core.Coloring{})
	orderingBytes := withStrategy(core.RankOrder{})
	saved := int64((base.Procs - 1) * base.Overlap * base.M)
	if coloringBytes-orderingBytes != saved {
		t.Fatalf("ordering saved %d bytes, want %d", coloringBytes-orderingBytes, saved)
	}
}

func TestPhaseBreakdownMatchesStrategyStructure(t *testing.T) {
	// The phase counters must attribute time where each strategy actually
	// spends it: locking waits on locks, the handshaking strategies
	// exchange views, coloring barriers between phases, two-phase
	// exchanges data.
	base := Experiment{
		Platform: platform.Origin2000(),
		M:        256, N: 2048, Procs: 8, Overlap: 16,
		Pattern:     ColumnWise,
		TraceEvents: true, EventLimit: -1,
	}
	runWith := func(s core.Strategy) *Result {
		e := base
		e.Strategy = s
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Events == nil {
			t.Fatal("trace missing")
		}
		return res
	}
	// total sums a phase's counter over ranks; most is its largest rank.
	total := func(res *Result, p trace.Phase) sim.VTime {
		return sim.VTime(res.Metrics.Counter(trace.Counter(p)))
	}
	most := func(res *Result, p trace.Phase) sim.VTime {
		var m int64
		for rank := 0; rank < res.Events.Actors(); rank++ {
			m = max(m, res.Events.Counter(rank, trace.Counter(p)))
		}
		return sim.VTime(m)
	}

	lockRes := runWith(core.Locking{})
	if total(lockRes, trace.PhaseLockWait) == 0 {
		t.Error("locking recorded no lock wait")
	}
	if total(lockRes, trace.PhaseHandshake) != 0 {
		t.Error("locking should not handshake")
	}
	// Serialized writers: aggregate lock wait exceeds aggregate transfer.
	if total(lockRes, trace.PhaseLockWait) <= total(lockRes, trace.PhaseTransfer) {
		t.Errorf("locking lockwait %v <= transfer %v",
			total(lockRes, trace.PhaseLockWait), total(lockRes, trace.PhaseTransfer))
	}

	colorRes := runWith(core.Coloring{})
	if total(colorRes, trace.PhaseHandshake) == 0 {
		t.Error("coloring recorded no handshake")
	}
	if total(colorRes, trace.PhaseSyncWait) == 0 {
		t.Error("coloring recorded no barrier wait")
	}
	if total(colorRes, trace.PhaseLockWait) != 0 {
		t.Error("coloring should not lock")
	}

	orderRes := runWith(core.RankOrder{})
	if total(orderRes, trace.PhaseHandshake) == 0 {
		t.Error("ordering recorded no handshake")
	}
	if total(orderRes, trace.PhaseSyncWait) != 0 {
		t.Error("ordering needs no barriers")
	}
	// Ordering's whole point: its non-transfer overhead is small, so
	// transfer dominates its critical path.
	if most(orderRes, trace.PhaseTransfer) <= most(orderRes, trace.PhaseHandshake) {
		t.Errorf("ordering transfer %v <= handshake %v",
			most(orderRes, trace.PhaseTransfer), most(orderRes, trace.PhaseHandshake))
	}

	twoRes := runWith(core.TwoPhase{})
	if total(twoRes, trace.PhaseExchange) == 0 {
		t.Error("two-phase recorded no exchange")
	}
	if s := twoRes.PhaseBreakdown(); !strings.Contains(s, "exchange") {
		t.Errorf("breakdown missing exchange:\n%s", s)
	}
}

// TestFigure8Shape pins the qualitative claims of the paper's Figure 8 on
// the smallest array (the other sizes share the cost structure; the full
// grid is exercised by cmd/figure8 and the benchmarks):
//
//  1. file locking yields the worst bandwidth of all strategies,
//  2. process-rank ordering beats graph-coloring,
//  3. the handshaking strategies scale up with P while locking stays flat
//     or declines.
func TestFigure8Shape(t *testing.T) {
	for _, prof := range platform.All() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			byName := map[string]Series{}
			for _, strat := range Methods(prof) {
				s := Series{Method: strat.Name(), ByProcs: map[int]float64{}}
				for _, procs := range Figure8Procs {
					res, err := Experiment{
						Platform: prof, M: Figure8M, N: Figure8Sizes[0].N, Procs: procs,
						Overlap: Figure8Overlap, Pattern: ColumnWise, Strategy: strat,
					}.Run()
					if err != nil {
						t.Fatalf("%s P=%d: %v", strat.Name(), procs, err)
					}
					s.ByProcs[procs] = res.BandwidthMBs
				}
				byName[s.Method] = s
			}
			coloring, ordering := byName["coloring"], byName["ordering"]
			locking, hasLocking := byName["locking"]

			if hasLocking != prof.SupportsLocking() {
				t.Fatalf("locking presence = %v, want %v", hasLocking, prof.SupportsLocking())
			}
			for _, p := range Figure8Procs {
				if ordering.ByProcs[p] < coloring.ByProcs[p] {
					t.Errorf("P=%d: ordering %.2f < coloring %.2f",
						p, ordering.ByProcs[p], coloring.ByProcs[p])
				}
				if hasLocking {
					if locking.ByProcs[p] >= coloring.ByProcs[p] {
						t.Errorf("P=%d: locking %.2f >= coloring %.2f",
							p, locking.ByProcs[p], coloring.ByProcs[p])
					}
					if locking.ByProcs[p] >= ordering.ByProcs[p] {
						t.Errorf("P=%d: locking %.2f >= ordering %.2f",
							p, locking.ByProcs[p], ordering.ByProcs[p])
					}
				}
			}
			// Handshaking strategies gain from more processes...
			if ordering.ByProcs[8] <= ordering.ByProcs[4] {
				t.Errorf("ordering does not scale: P4=%.2f P8=%.2f",
					ordering.ByProcs[4], ordering.ByProcs[8])
			}
			if coloring.ByProcs[8] <= coloring.ByProcs[4] {
				t.Errorf("coloring does not scale: P4=%.2f P8=%.2f",
					coloring.ByProcs[4], coloring.ByProcs[8])
			}
			// ...while locking is flat or declining (serialized writers).
			if hasLocking && locking.ByProcs[16] > locking.ByProcs[4]*1.1 {
				t.Errorf("locking should not scale: P4=%.2f P16=%.2f",
					locking.ByProcs[4], locking.ByProcs[16])
			}
		})
	}
}

func TestBandwidthRepeatable(t *testing.T) {
	// Virtual-time bandwidth must be stable across runs: the engine admits
	// actions in (virtual time, actor id) order, so repeated experiments
	// agree within a small tolerance.
	e := Experiment{
		Platform: platform.IBMSP(),
		M:        512, N: 8192, Procs: 8, Overlap: 32,
		Pattern:  ColumnWise,
		Strategy: core.RankOrder{},
	}
	var prev float64
	for i := 0; i < 3; i++ {
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			ratio := res.BandwidthMBs / prev
			if ratio < 0.98 || ratio > 1.02 {
				t.Fatalf("run %d bandwidth %.3f vs %.3f (ratio %.3f): not repeatable",
					i, res.BandwidthMBs, prev, ratio)
			}
		}
		prev = res.BandwidthMBs
	}
}

func TestRenderPanel(t *testing.T) {
	prof := platform.Origin2000()
	panel := Panel{Platform: prof, N: Figure8Sizes[0].N, Label: "32 MB"}
	series := []Series{{
		Method:  "ordering",
		ByProcs: map[int]float64{4: 1, 8: 2, 16: 3},
	}}
	out := RenderPanel(panel, series)
	for _, want := range []string{"Origin2000", "4096 x 8192", "32 MB", "ordering", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPatternString(t *testing.T) {
	if ColumnWise.String() != "column-wise" || RowWise.String() != "row-wise" ||
		BlockBlock.String() != "block-block" || Pattern(9).String() == "" {
		t.Fatal("pattern strings")
	}
}
