// Benchmarks regenerating the paper's evaluation: one benchmark per cell of
// Figure 8 (platform × array size × process count × strategy; Table 1 is
// configuration and is exercised by cmd/table1), plus ablation benches for
// the design choices discussed in §3 but not plotted. The reported vMB/s
// metric is the Figure 8 quantity: useful array bytes divided by virtual
// makespan. Wall-clock ns/op measures only the simulator itself.
//
// Run: go test -bench=. -benchmem
package atomio

import (
	"testing"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/platform"
	"atomio/internal/runner"
)

// runExperiment executes e b.N times, reporting virtual bandwidth.
func runExperiment(b *testing.B, e harness.Experiment) {
	b.Helper()
	var last *harness.Result
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BandwidthMBs, "vMB/s")
	b.ReportMetric(last.Makespan.Seconds()*1e3, "vms")
}

// BenchmarkFigure8 is the full Figure 8 grid, enumerated by the same
// runner.Figure8Grid the figure8 command executes, so the paper's
// evaluation is defined in exactly one place. Sub-benchmark names follow
// the paper's panel layout: platform / array size / process count /
// strategy. Locking is absent on Cplant, as in the paper. Cells run
// data-less (time accounting only), so the 1 GB panels stay memory-flat.
func BenchmarkFigure8(b *testing.B) {
	for _, cell := range runner.Figure8Grid().Cells() {
		b.Run(cell.ID, func(b *testing.B) { runExperiment(b, cell.Experiment) })
	}
}

// BenchmarkAblationLockManager (A1) isolates the lock-manager flavour: the
// same GPFS-like platform once with its distributed token manager and once
// with an NFS/XFS-style central manager, under the locking strategy. The
// distributed manager's fast path does not help overlapping writers (the
// spans all conflict), so the two serialize similarly — the paper's point
// that GPFS's distributed locking still sequentializes overlapping writes.
func BenchmarkAblationLockManager(b *testing.B) {
	base := platform.IBMSP()
	variants := map[string]platform.LockStyle{
		"distributed": platform.DistributedLocking,
		"central":     platform.CentralLocking,
	}
	for name, style := range variants {
		prof := base
		prof.LockStyle = style
		if style == platform.CentralLocking {
			prof.LockMsgCost = base.LockMsgCost
			prof.LockService = base.LockService
		}
		e := harness.Experiment{
			Platform: prof,
			M:        1024, N: 16384, Procs: 8, Overlap: 32,
			Pattern:  harness.ColumnWise,
			Strategy: core.Locking{},
		}
		b.Run(name, func(b *testing.B) { runExperiment(b, e) })
	}
}

// BenchmarkAblationBlockBlockColors (A2) measures what extra colors cost.
// The two patterns have different segment counts and overlap volumes, so
// the meaningful comparison is the coloring-vs-ordering *gap* per pattern:
// ordering always runs one phase, coloring runs 2 phases on column-wise
// and 4 on the block-block ghost-cell grid of Figure 1 — the gap widens
// with the color count.
func BenchmarkAblationBlockBlockColors(b *testing.B) {
	patterns := map[string]harness.Pattern{
		"column-wise-2colors": harness.ColumnWise,
		"block-block-4colors": harness.BlockBlock,
	}
	strategies := map[string]core.Strategy{
		"coloring": core.Coloring{},
		"ordering": core.RankOrder{},
	}
	for pname, pattern := range patterns {
		for sname, strat := range strategies {
			e := harness.Experiment{
				Platform: platform.Origin2000(),
				M:        4096, N: 4096, Procs: 16, Overlap: 16,
				Pattern:  pattern,
				Strategy: strat,
			}
			b.Run(pname+"/"+sname, func(b *testing.B) { runExperiment(b, e) })
		}
	}
}

// BenchmarkAblationCacheSync (A3) measures what the paper's §3 requirement
// — "a file synchronization call immediately following every write" on a
// caching file system — costs the handshaking strategies: the same
// experiment with the client cache enabled (write-behind absorbed, then
// flushed at sync) and disabled (every write goes straight to servers).
func BenchmarkAblationCacheSync(b *testing.B) {
	base := platform.Cplant()
	for name, enabled := range map[string]bool{"write-behind": true, "no-cache": false} {
		prof := base
		prof.Cache.WriteBehind = enabled
		e := harness.Experiment{
			Platform: prof,
			M:        1024, N: 16384, Procs: 8, Overlap: 32,
			Pattern:  harness.ColumnWise,
			Strategy: core.Coloring{},
		}
		b.Run(name, func(b *testing.B) { runExperiment(b, e) })
	}
}

// BenchmarkAblationRowWise (A4) reruns the strategy comparison on the
// row-wise pattern of §3.2, where every file view is one contiguous
// segment: locks only conflict between neighbouring ranks, so locking is no
// longer catastrophic — the paper's explanation of why the column-wise
// pattern is the interesting one.
func BenchmarkAblationRowWise(b *testing.B) {
	prof := platform.Origin2000()
	for _, strat := range harness.Methods(prof) {
		e := harness.Experiment{
			Platform: prof,
			M:        16384, N: 1024, Procs: 8, Overlap: 32,
			Pattern:  harness.RowWise,
			Strategy: strat,
		}
		b.Run(strat.Name(), func(b *testing.B) { runExperiment(b, e) })
	}
}

// BenchmarkAblationHandshake (A5) compares the coloring handshake payloads:
// exact flattened extent lists versus bounding spans. Spans are cheaper to
// exchange but conservative — for column-wise views every pair of spans
// intersects, the conflict graph becomes complete, and coloring degrades to
// P serial phases. Exactness is what keeps the handshake useful.
func BenchmarkAblationHandshake(b *testing.B) {
	for name, strat := range map[string]core.Strategy{
		"exact-extents": core.Coloring{},
		"spans-only":    core.Coloring{UseSpans: true},
	} {
		e := harness.Experiment{
			Platform: platform.IBMSP(),
			M:        1024, N: 16384, Procs: 8, Overlap: 32,
			Pattern:  harness.ColumnWise,
			Strategy: strat,
		}
		b.Run(name, func(b *testing.B) { runExperiment(b, e) })
	}
}

// BenchmarkAblationListIO (A6) evaluates the paper's §3.2 thought
// experiment: a file system whose lio_listio obeys POSIX atomicity lets
// each rank commit its whole non-contiguous request as one atomic vectored
// call. The capability removes lock-manager traffic and handshakes, but the
// file system still serializes the atomic calls internally — for the
// column-wise pattern, where every pair of requests conflicts, it performs
// like whole-span locking, and the handshaking strategies keep their edge.
// The paper's observation buys correctness, not scalability.
func BenchmarkAblationListIO(b *testing.B) {
	prof := platform.Origin2000()
	strategies := map[string]core.Strategy{
		"listio":   core.ListIO{},
		"locking":  core.Locking{},
		"ordering": core.RankOrder{},
	}
	for name, strat := range strategies {
		e := harness.Experiment{
			Platform: prof,
			M:        1024, N: 16384, Procs: 8, Overlap: 32,
			Pattern:      harness.ColumnWise,
			Strategy:     strat,
			AtomicListIO: true,
		}
		b.Run(name, func(b *testing.B) { runExperiment(b, e) })
	}
}

// BenchmarkAblationTwoPhase (A7) pits the two-phase collective-buffering
// extension against the paper's handshaking strategies. Two-phase trades a
// full data exchange over the network for aggregators writing large
// contiguous file domains (few non-contiguous segments); its advantage
// grows with per-segment cost and shrinks with network cost.
func BenchmarkAblationTwoPhase(b *testing.B) {
	prof := platform.IBMSP()
	for _, strat := range []core.Strategy{core.TwoPhase{}, core.Coloring{}, core.RankOrder{}} {
		e := harness.Experiment{
			Platform: prof,
			M:        1024, N: 16384, Procs: 8, Overlap: 32,
			Pattern:  harness.ColumnWise,
			Strategy: strat,
		}
		b.Run(strat.Name(), func(b *testing.B) { runExperiment(b, e) })
	}
}

// BenchmarkScaling runs the large-P scaling grid (process counts up to
// 1024, non-contiguous interleaved views) — the workload the sweep-line
// overlap matrix and the indexed lock table exist for. The cells are full
// virtual-time simulations; -short keeps only the smallest point so smoke
// runs stay quick, and the micro-level speedups are measured separately in
// internal/interval/index and internal/lock.
func BenchmarkScaling(b *testing.B) {
	for _, cell := range runner.ScalingGrid() {
		if testing.Short() && cell.Experiment.Procs > runner.ScalingPoints[0].Procs {
			continue
		}
		b.Run(cell.ID, func(b *testing.B) { runExperiment(b, cell.Experiment) })
	}
}

// BenchmarkDegraded runs the degraded-server scenario grid (healthy
// baseline, one slow server, a hot server absorbing skewed affinity, a
// server-count rebalance — see runner.DegradedGrid). The vMB/s metric here
// answers "what does this failure cost", not the paper's Figure 8:
// perturbed cells are explicitly non-comparable to healthy output. -short
// keeps only the first perturbing cell at P=4, the smallest, which is what
// CI's bench-smoke job exercises.
func BenchmarkDegraded(b *testing.B) {
	for _, cell := range runner.DegradedGrid() {
		// A perturbing scenario slows a server or skews affinity.
		if s := cell.Experiment.Scenario; testing.Short() && (len(s.Slow) == 0 && len(s.Affinity) == 0 || cell.Experiment.Procs != 4) {
			continue
		}
		b.Run(cell.ID, func(b *testing.B) { runExperiment(b, cell.Experiment) })
		if testing.Short() {
			return
		}
	}
}

// BenchmarkSimulatorOverhead measures the wall-clock cost of the simulator
// itself on the heaviest Figure 8 cell, so regressions in the substrate
// (message matching, extent algebra, server queues) show up here.
func BenchmarkSimulatorOverhead(b *testing.B) {
	e := harness.Experiment{
		Platform: platform.IBMSP(),
		M:        harness.Figure8M, N: 262144, Procs: 16, Overlap: harness.Figure8Overlap,
		Pattern:  harness.ColumnWise,
		Strategy: core.RankOrder{},
	}
	runExperiment(b, e)
}
