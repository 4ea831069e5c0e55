package atomio

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/pfs/scenario"
	"atomio/internal/runner"
)

// TestNewDefaults pins the documented defaults and their validity.
func TestNewDefaults(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		Platform: "Origin2000", M: 1024, N: 8192, Procs: 4, Overlap: 16,
		Pattern: "column-wise", Strategy: "coloring",
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("defaults = %+v, want %+v", s, want)
	}
}

// TestNewValidation tables the rejected option combinations; every error
// must identify the offending input.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"unknown platform", []Option{Platform("VAX")}, `unknown platform "VAX"`},
		{"unknown strategy", []Option{Strategy("two-phase")}, `unknown strategy "two-phase"`},
		{"unknown scenario", []Option{Scenario("meltdown")}, `unknown scenario "meltdown"`},
		{"unknown pattern", []Option{Pattern("diagonal")}, `unknown pattern "diagonal"`},
		{"bad array", []Option{Array(0, 8)}, "must be positive"},
		{"bad procs", []Option{Procs(0)}, "must be positive"},
		{"bad overlap", []Option{Overlap(-1)}, "non-negative"},
		{"bad servers", []Option{Servers(-1)}, "non-negative"},
		{"bad lock shards", []Option{LockShards(-1)}, "non-negative"},
		{"bad checkpoints", []Option{Checkpoints(-1)}, "non-negative"},
		{"bad compute", []Option{Compute(-time.Second)}, "non-negative"},
		{"bad timeout", []Option{Timeout(-time.Second)}, "non-negative"},
		{"nil option", []Option{nil}, "nil option"},
		{"locking on Cplant", []Option{Platform("Cplant"), Strategy("locking")}, "has none"},
		{"affinity scenario off-platform",
			[]Option{Platform("Origin2000"), Scenario("hotspot0")}, "client-affinity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New(%s) error = %v, want substring %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestUnknownNamesListRegistered checks the registry hygiene contract:
// unknown names are reported together with every registered name.
func TestUnknownNamesListRegistered(t *testing.T) {
	if _, err := StrategyByName("osmosis"); err == nil ||
		!strings.Contains(err.Error(), "locking, coloring, ordering, listio, twophase") {
		t.Errorf("StrategyByName error = %v, want registered list", err)
	}
	if _, err := PlatformByName("VAX"); err == nil ||
		!strings.Contains(err.Error(), "Cplant, Origin2000, IBM SP") {
		t.Errorf("PlatformByName error = %v, want registered list", err)
	}
	if _, err := ScenarioByName("meltdown"); err == nil ||
		!strings.Contains(err.Error(), "healthy, slow0x4, hotspot0, servers6") {
		t.Errorf("ScenarioByName error = %v, want registered list", err)
	}
}

// TestRegisterDuplicate checks duplicate registration returns an error
// (never a panic), for all three registries.
func TestRegisterDuplicate(t *testing.T) {
	if err := RegisterStrategy(func() core.Strategy { return core.Locking{} }); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate strategy: err = %v", err)
	}
	if err := RegisterPlatform(func() Profile { return Profile{Name: "Cplant"} }); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate platform: err = %v", err)
	}
	if err := RegisterScenario(scenario.Healthy); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate scenario: err = %v", err)
	}
	if err := RegisterStrategy(nil); err == nil {
		t.Error("nil strategy constructor: want error")
	}
	if err := RegisterPlatform(func() Profile { return Profile{} }); err == nil {
		t.Error("empty platform name: want error")
	}
}

// TestDegradedScenarioNamesRegistered guards against the scenario registry
// drifting from the degraded grid's scenario set.
func TestDegradedScenarioNamesRegistered(t *testing.T) {
	for _, scen := range runner.DegradedScenarios() {
		got, err := ScenarioByName(scen.Name)
		if err != nil {
			t.Errorf("scenario %q of the degraded grid is not registered: %v", scen.Name, err)
			continue
		}
		if !reflect.DeepEqual(got, scen) {
			t.Errorf("registered scenario %q = %+v, want the degraded grid's %+v", scen.Name, got, scen)
		}
	}
}

// TestFigure8MatchesRunner pins the facade's Figure 8 grid to the
// pre-redesign runner definition, cell for cell — the structural half of
// the byte-identical-output contract.
func TestFigure8MatchesRunner(t *testing.T) {
	cells, err := Figure8().Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := runner.Figure8Grid().Cells()
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("facade Figure 8 cells differ from runner.Figure8Grid().Cells()")
	}
	for _, f := range []struct {
		name  string
		cells []Cell
		want  []Cell
	}{
		{"Scaling", Scaling(), runner.ScalingGrid()},
		{"ShardSweep", ShardSweep(), runner.ShardSweepGrid()},
		{"Degraded", Degraded(), runner.DegradedGrid()},
	} {
		if !reflect.DeepEqual(f.cells, f.want) {
			t.Errorf("facade %s cells differ from the runner grid", f.name)
		}
	}
}

// TestGridFacadeByteIdentical runs one small grid twice — hand-wired
// runner structs versus the facade's name-resolved grid — and requires
// identical records modulo wall-clock time.
func TestGridFacadeByteIdentical(t *testing.T) {
	facade := Grid{
		Platforms:  []string{"Origin2000", "IBM SP"},
		Sizes:      []Size{{M: 128, N: 1024}},
		Procs:      []int{2, 4},
		Overlap:    8,
		Pattern:    "column",
		Strategies: []string{"locking", "ordering"},
	}
	cells, err := facade.Cells()
	if err != nil {
		t.Fatal(err)
	}
	o2k, _ := PlatformByName("Origin2000")
	sp, _ := PlatformByName("IBM SP")
	locking, _ := core.ByName("locking")
	ordering, _ := core.ByName("ordering")
	wired := runner.Grid{
		Platforms:  []Profile{o2k, sp},
		Sizes:      []Size{{M: 128, N: 1024}},
		Procs:      []int{2, 4},
		Overlap:    8,
		Pattern:    harness.ColumnWise,
		Strategies: []core.Strategy{locking, ordering},
	}.Cells()

	got := Records(RunGrid(cells, RunOptions{Workers: 2}))
	want := Records(runner.Run(wired, runner.Options{Workers: 1}))
	for i := range got {
		got[i].WallNS = 0
		want[i].WallNS = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("facade-driven records differ from hand-wired records:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpecRunMatchesHarness runs the same experiment through the facade
// and through a hand-wired harness.Experiment.
func TestSpecRunMatchesHarness(t *testing.T) {
	res, err := Run(
		Platform("IBM SP"), Array(128, 1024), Procs(4), Overlap(8), Strategy("coloring"),
	)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := PlatformByName("IBM SP")
	want, err := harness.Experiment{
		Platform: prof, M: 128, N: 1024, Procs: 4, Overlap: 8,
		Pattern: harness.ColumnWise, Strategy: core.Coloring{},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != want.Makespan || res.BandwidthMBs != want.BandwidthMBs ||
		res.WrittenBytes != want.WrittenBytes {
		t.Errorf("facade result %v/%v/%v, hand-wired %v/%v/%v",
			res.Makespan, res.BandwidthMBs, res.WrittenBytes,
			want.Makespan, want.BandwidthMBs, want.WrittenBytes)
	}
}

// TestCheckpointsRun exercises the multi-dump experiment: deterministic,
// IOTime below the makespan, compute time excluded from IOTime.
func TestCheckpointsRun(t *testing.T) {
	opts := []Option{
		Platform("Cplant"), Array(128, 1024), Procs(4), Overlap(8), Strategy("ordering"),
		Checkpoints(3), Compute(10 * time.Millisecond),
	}
	res, err := Run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArrayBytes != 3*128*1024 {
		t.Errorf("ArrayBytes = %d, want %d (3 dumps)", res.ArrayBytes, 3*128*1024)
	}
	if res.IOTime <= 0 || res.IOTime >= res.Makespan {
		t.Errorf("IOTime %v out of range (makespan %v)", res.IOTime, res.Makespan)
	}
	if res.Makespan < VTime(30*time.Millisecond) {
		t.Errorf("makespan %v does not cover 3x10ms of compute", res.Makespan)
	}
	again, err := Run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != res.Makespan || again.IOTime != res.IOTime {
		t.Errorf("checkpoint run is nondeterministic: %v/%v vs %v/%v",
			res.Makespan, res.IOTime, again.Makespan, again.IOTime)
	}

	// Verify covers every dump, not just the last one.
	verified, err := Run(append(opts, Verify(true))...)
	if err != nil {
		t.Fatal(err)
	}
	if verified.Report == nil || !verified.Report.Atomic() {
		t.Errorf("verified checkpoint run: report = %+v", verified.Report)
	}
	if verified.Report.Atoms == 0 {
		t.Error("verified checkpoint run examined no overlapped atoms")
	}
}

// TestConflicts checks the facade's conflict analysis against the core
// layer on the ghost-cell pattern.
func TestConflicts(t *testing.T) {
	spec, err := New(Array(96, 96), Procs(9), Overlap(4), Pattern("block"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Conflicts()
	if err != nil {
		t.Fatal(err)
	}
	e, err := spec.experiment()
	if err != nil {
		t.Fatal(err)
	}
	views, err := e.Views()
	if err != nil {
		t.Fatal(err)
	}
	w := core.BuildOverlapMatrix(views)
	if !reflect.DeepEqual(c.Overlaps, [][]bool(w)) {
		t.Error("Conflicts.Overlaps differs from core.BuildOverlapMatrix")
	}
	colors, phases := core.GreedyColor(w)
	if !reflect.DeepEqual(c.Colors, colors) || c.Phases != phases {
		t.Errorf("coloring = %v/%d, want %v/%d", c.Colors, c.Phases, colors, phases)
	}
	if c.String() != w.String() {
		t.Error("Conflicts.String differs from the matrix rendering")
	}
	if c.Phases != 4 {
		t.Errorf("3x3 ghost grid colors = %d phases, want 4", c.Phases)
	}
}

// TestMethods pins the per-platform strategy sets.
func TestMethods(t *testing.T) {
	cases := map[string][]string{
		"Cplant":     {"coloring", "ordering"},
		"Origin2000": {"locking", "coloring", "ordering"},
		"IBM SP":     {"locking", "coloring", "ordering"},
	}
	for name, want := range cases {
		got, err := Methods(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Methods(%s) = %v, want %v", name, got, want)
		}
	}
	if _, err := Methods("VAX"); err == nil {
		t.Error("Methods(VAX): want error")
	}
}

// TestGridNarrowing checks WithPlatform/WithSize against unknown names.
func TestGridNarrowing(t *testing.T) {
	g, err := Figure8().WithPlatform("IBM SP")
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.WithSize("32 MB"); err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 { // 3 procs x 3 strategies
		t.Errorf("narrowed grid has %d cells, want 9", len(cells))
	}
	for _, c := range cells {
		if !strings.HasPrefix(c.ID, "IBM SP/32 MB/") {
			t.Errorf("unexpected cell %s", c.ID)
		}
	}
	if _, err := Figure8().WithPlatform("VAX"); err == nil {
		t.Error("WithPlatform(VAX): want error")
	}
	if _, err := Figure8().WithSize("2 GB"); err == nil {
		t.Error("WithSize(2 GB): want error")
	}
}

// TestScenarioSpecRun checks a degraded scenario resolves by name and
// reports per-server stats.
func TestScenarioSpecRun(t *testing.T) {
	res, err := Run(
		Platform("Cplant"), Array(64, 512), Procs(4), Overlap(8), Strategy("ordering"),
		Scenario("slow0x4"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerStats) == 0 {
		t.Fatal("no server stats")
	}
	healthy, err := Run(
		Platform("Cplant"), Array(64, 512), Procs(4), Overlap(8), Strategy("ordering"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= healthy.Makespan {
		t.Errorf("slow-server makespan %v not above healthy %v", res.Makespan, healthy.Makespan)
	}
}

// TestGridVerifyWithoutStoreData is the regression test for verification on
// a file that stored nothing: Grid, unlike Spec, never forced StoreData on
// for Verify, so a correct coloring run on IBM SP was checked against an
// all-zero file and reported torn. Verify now implies StoreData inside the
// harness, whichever way the cell was built.
func TestGridVerifyWithoutStoreData(t *testing.T) {
	cells, err := Grid{
		Platforms:  []string{"IBM SP"},
		Sizes:      []Size{{M: 64, N: 512}},
		Procs:      []int{4},
		Overlap:    8,
		Strategies: []string{"coloring"},
		Verify:     true,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results := RunGrid(cells, RunOptions{Workers: 1})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		rep := r.Result.Report
		if r.Result.Verdict != "serializable" || rep.Atoms == 0 {
			t.Errorf("%s: verdict %q over %d atoms, violations %v",
				r.Cell.ID, r.Result.Verdict, rep.Atoms, rep.Violations)
		}
	}
}
