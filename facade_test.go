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
	o2k, _ := PlatformByName("Origin2000")
	want := &Spec{harness.Experiment{
		Platform: o2k, M: 1024, N: 8192, Procs: 4, Overlap: 16,
		Pattern: harness.ColumnWise, Strategy: core.Coloring{},
	}}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("defaults = %+v, want %+v", s, want)
	}
}

// TestNewValidation tables the rejected option combinations; every error
// must identify the offending input, and must arrive before anything is
// allocated from the rejected value (the over-bound rows ran the process
// out of memory when New let them through).
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
		{"unknown fault", []Option{Fault("gremlins")}, `unknown fault script "gremlins"`},
		{"bad array", []Option{Array(0, 8)}, "array shape 0x8 must be positive"},
		{"array overflow", []Option{Array(1<<40, 1<<40), Procs(1), Overlap(0)}, "array shape"},
		{"bad procs", []Option{Procs(0)}, "process count must be positive"},
		{"too many procs", []Option{Array(1, 1<<22), Procs(1 << 22), Overlap(0)}, "process count must be"},
		{"bad overlap", []Option{Overlap(-1)}, "overlap must be non-negative"},
		{"bad servers", []Option{Servers(-1)}, "servers must be non-negative"},
		{"too many servers", []Option{Servers(1 << 30)}, "servers must be"},
		{"bad checkpoints", []Option{Checkpoints(-1)}, "checkpoint steps must be non-negative"},
		{"bad compute", []Option{Compute(-time.Second)}, "compute time must be non-negative"},
		{"indivisible shape", []Option{Procs(3)}, "not divisible"},
		{"nil option", []Option{nil}, "nil option"},
		{"locking on Cplant", []Option{Platform("Cplant"), Strategy("locking")}, "no byte-range locking"},
		{"affinity scenario off-platform",
			[]Option{Platform("Origin2000"), Scenario("hotspot0")}, "client-affinity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			if _, err := Run(tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run(%s) error = %v, want substring %q", tc.name, err, tc.want)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("Run(%s) took %v to fail", tc.name, d)
			}
		})
	}
}

// TestEveryExperimentFieldHasAnOption keeps the facade complete: each
// exported field of harness.Experiment — the one struct that describes a
// cell — is set by a facade Option, or is listed here with the reason it
// needs none. A field added without either fails with where to put it.
func TestEveryExperimentFieldHasAnOption(t *testing.T) {
	setters := map[string]Option{
		"Platform": Platform("Cplant"), "M": Array(7, 9), "N": Array(7, 9), "Procs": Procs(2),
		"Overlap": Overlap(2), "Pattern": Pattern("row"), "Strategy": Strategy("ordering"),
		"Verify":      Verify(true),
		"TraceEvents": TraceEvents(true), "EventLimit": TraceLimit(16),
		"Servers": Servers(3), "Scenario": Scenario("slow0x4"),
		"Steps": Checkpoints(3), "Compute": Compute(time.Millisecond), "Faults": Fault("server-outage"),
		"Recovery": Recovery(true),
	}
	derived := map[string]string{
		"AtomicListIO": "implied by the listio strategy inside harness (a field only for capability probes)",
		"StoreData":    "no effect: Verify alone keeps the file's write records (a field only the benchmark module sets)",
	}
	before, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(before.Experiment)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		opt, ok := setters[name]
		if _, isDerived := derived[name]; ok == isDerived {
			t.Errorf("harness.Experiment.%s: add an Option for it in atomio.go and a row in this test's setters table "+
				"(or a reason in derived), not both and not neither", name)
			continue
		}
		if !ok {
			continue
		}
		after, err := build([]Option{opt})
		if err != nil {
			t.Fatalf("option for %s: %v", name, err)
		}
		was := reflect.ValueOf(before.Experiment).Field(i).Interface()
		if now := reflect.ValueOf(after.Experiment).Field(i).Interface(); reflect.DeepEqual(was, now) {
			t.Errorf("the option listed for harness.Experiment.%s leaves it at %v", name, was)
		}
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

// TestFigure8MatchesRunner checks what naming the runner's grid adds: the
// platform list is the paper's Table 1 three spelled out (not "every
// registered platform", which later registrations would grow), and the
// names resolve back to the runner's cells.
func TestFigure8MatchesRunner(t *testing.T) {
	if got := Figure8().Platforms; !reflect.DeepEqual(got, []string{"Cplant", "Origin2000", "IBM SP"}) {
		t.Errorf("Figure8().Platforms = %v, want the Table 1 three by name", got)
	}
	cells, err := Figure8().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, runner.Figure8Grid().Cells()) {
		t.Fatalf("facade Figure 8 cells differ from runner.Figure8Grid().Cells()")
	}
}

// TestGridFacadeByteIdentical checks a facade grid is the runner grid of
// its resolved names: platform and strategy names reach the axes, every
// Option reaches every cell, and the axes win over an Option for the same
// field.
func TestGridFacadeByteIdentical(t *testing.T) {
	cells, err := Grid{
		Platforms:  []string{"Origin2000", "IBM SP"},
		Sizes:      []Size{{M: 128, N: 1024}},
		Procs:      []int{2, 4},
		Strategies: []string{"locking", "ordering"},
		Options:    []Option{Overlap(8), Pattern("column"), Servers(3), TraceEvents(true), Procs(64)},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	o2k, _ := PlatformByName("Origin2000")
	sp, _ := PlatformByName("IBM SP")
	want := runner.Grid{
		Platforms:  []Profile{o2k, sp},
		Sizes:      []Size{{M: 128, N: 1024}},
		Procs:      []int{2, 4},
		Strategies: []core.Strategy{core.Locking{}, core.RankOrder{}},
		Base: harness.Experiment{
			Overlap: 8, Pattern: harness.ColumnWise, Servers: 3, TraceEvents: true,
		},
	}.Cells()
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("facade cells differ from the hand-wired runner grid:\n got %+v\nwant %+v", cells, want)
	}
	if _, err := (Grid{Platforms: []string{"VAX"}}).Cells(); err == nil {
		t.Error("unknown platform name: want error")
	}
	if _, err := (Grid{Strategies: []string{"osmosis"}}).Cells(); err == nil {
		t.Error("unknown strategy name: want error")
	}
	if _, err := (Grid{Options: []Option{Pattern("diagonal")}}).Cells(); err == nil {
		t.Error("unknown pattern name in Options: want error")
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
	views, err := spec.Views()
	if err != nil {
		t.Fatal(err)
	}
	w := core.BuildOverlapMatrix(views)
	if !reflect.DeepEqual(c.Overlaps, w.Dense()) {
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
// a file that stored nothing: a Grid once never forced StoreData on for
// Verify, so a correct coloring run on IBM SP was checked against an
// all-zero file and reported torn. Verify alone now keeps the file's write
// records inside the harness, whichever way the cell was built.
func TestGridVerifyWithoutStoreData(t *testing.T) {
	cells, err := Grid{
		Platforms:  []string{"IBM SP"},
		Sizes:      []Size{{M: 64, N: 512}},
		Procs:      []int{4},
		Strategies: []string{"coloring"},
		Options:    []Option{Overlap(8), Verify(true)},
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
