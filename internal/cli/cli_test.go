package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"atomio"
)

// TestParseProcs mirrors the contract the binaries rely on: trimmed,
// positive, comma-separated counts; everything else is an error.
func TestParseProcs(t *testing.T) {
	got, err := ParseProcs(" 4, 8,16 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{4, 8, 16}) {
		t.Errorf("got %v", got)
	}
	for _, bad := range []string{"", "  ", "4,,8", "4,x", "0", "-2", "4,8,", "4194304"} {
		if _, err := ParseProcs(bad); err == nil {
			t.Errorf("ParseProcs(%q): want error", bad)
		}
	}
	if _, err := ParseProcs("3,16384"); err != nil { // bounds, not divisibility of some default shape
		t.Errorf("ParseProcs(3,16384): %v", err)
	}
}

// TestParsePattern checks the short and long forms normalize, and that
// unknown or empty patterns are rejected.
func TestParsePattern(t *testing.T) {
	cases := map[string]string{
		"column": "column-wise", "column-wise": "column-wise",
		"row": "row-wise", "row-wise": "row-wise",
		"block": "block-block", "block-block": "block-block",
	}
	for in, want := range cases {
		got, err := ParsePattern(in)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "  ", "diagonal", "columns"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q): want error", bad)
		}
	}
}

// TestParseStrategies checks name resolution through the facade registry;
// unknown names must be reported with the registered names.
func TestParseStrategies(t *testing.T) {
	got, err := ParseStrategies("locking, coloring ,ordering")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"locking", "coloring", "ordering"}) {
		t.Errorf("got %v", got)
	}
	for _, bad := range []string{"", "locking,,ordering", "osmosis"} {
		if _, err := ParseStrategies(bad); err == nil {
			t.Errorf("ParseStrategies(%q): want error", bad)
		}
	}
	_, err = ParseStrategies("osmosis")
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown strategy error %v should list registered names", err)
	}
}

// TestModelValidation checks the shared -lockshards/-servers validation:
// the flag-level input checks, and the experiment's own bounds reached
// through the facade — the two over-bound rows ran the process out of
// memory when only the sign was checked.
func TestModelValidation(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
		want string // diagnostic substring for the failing cases
	}{
		{[]string{}, true, ""},
		{[]string{"-lockshards", "4", "-servers", "7"}, true, ""},
		{[]string{"-engine", "eventloop"}, false, "not defined"},
		{[]string{"-sharedstore"}, false, "not defined"},
		{[]string{"-lockshards", "-1"}, false, "-lockshards must be non-negative"},
		{[]string{"-servers", "-2"}, false, "-servers must be non-negative"},
		{[]string{"-servers", "x"}, false, "invalid value"},
		{[]string{"-servers", "1073741824"}, false, "servers must be non-negative and at most"},
		{[]string{"-lockshards", "268435456"}, false, "lock shards must be non-negative and at most"},
	}
	for _, tc := range cases {
		var buf strings.Builder
		app := New("test")
		app.SetOutput(&buf)
		m := app.Model()
		start := time.Now()
		err := app.Parse(tc.args)
		if (err == nil) != tc.ok || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("Parse(%v) err = %v, diagnostic %q; want ok=%v with %q", tc.args, err, buf.String(), tc.ok, tc.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Parse(%v) took %v", tc.args, d)
		}
		if tc.ok && len(tc.args) > 0 {
			if m.LockShards != 4 || m.Servers != 7 {
				t.Errorf("Parse(%v) model = %+v", tc.args, m)
			}
		}
	}
}

// TestOutputValidation checks -workers: 0 means all CPUs, and a negative
// count is rejected with the same diagnostic shape and exit status as
// -lockshards -1 instead of silently running on all CPUs.
func TestOutputValidation(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string // diagnostic substring
	}{
		{[]string{}, 0, ""},
		{[]string{"-workers", "0"}, 0, ""},
		{[]string{"-workers", "3"}, 0, ""},
		{[]string{"-workers", "-3"}, 1, "test: -workers must be non-negative, got -3"},
		{[]string{"-workers", "x"}, 2, "invalid value"},
	}
	for _, tc := range cases {
		var buf strings.Builder
		app := New("test")
		app.SetOutput(&buf)
		app.Output(false)
		err := app.Parse(tc.args)
		if ExitCode(err) != tc.code || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("Parse(%v): exit %d, diagnostic %q; want exit %d with %q",
				tc.args, ExitCode(err), buf.String(), tc.code, tc.want)
		}
	}
}

// parseGroups parses args into a fresh Model and Trace group.
func parseGroups(t *testing.T, args ...string) (*Model, *Trace) {
	t.Helper()
	app := New("test")
	app.SetOutput(io.Discard)
	m, tr := app.Model(), app.Trace()
	if err := app.Parse(args); err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestUnsetGroupsKeepPerCellValues is the regression test for the clobber
// the Apply/ApplyCells twins had: a group whose flags were not given wrote
// its zero values over every cell, erasing the shard sweep's own counts.
func TestUnsetGroupsKeepPerCellValues(t *testing.T) {
	m, tr := parseGroups(t)
	if opts := append(m.Options(), tr.Options()...); len(opts) != 0 {
		t.Fatalf("unset groups yield %d options, want none", len(opts))
	}
	cells := atomio.ShardSweep()
	if err := Apply(cells, append(m.Options(), tr.Options()...)...); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 4, 8} {
		if got := cells[i].Experiment.LockShards; got != want {
			t.Errorf("cell %s has %d lock shards after an unset group, want %d", cells[i].ID, got, want)
		}
	}
}

// TestSetGroupsReachEveryCell checks set flags arrive on every cell both
// ways a binary applies them: as a Grid's Options and onto pre-expanded
// cells.
func TestSetGroupsReachEveryCell(t *testing.T) {
	m, tr := parseGroups(t, "-lockshards", "4", "-servers", "7", "-metrics")
	opts := append(m.Options(), tr.Options()...)
	grid := atomio.Figure8()
	grid.Options = append(grid.Options, opts...)
	gridCells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	scaling := atomio.ScalingTo(64)
	if err := Apply(scaling, opts...); err != nil {
		t.Fatal(err)
	}
	for _, c := range append(gridCells, scaling...) {
		e := c.Experiment
		if e.LockShards != 4 || e.Servers != 7 || !e.TraceEvents || e.EventLimit != -1 {
			t.Errorf("cell %s: shards=%d servers=%d events=%v limit=%d", c.ID,
				e.LockShards, e.Servers, e.TraceEvents, e.EventLimit)
		}
	}
	if gridCells[0].Experiment.Overlap != 64 || scaling[0].Experiment.Overlap != 16 {
		t.Error("applying the groups erased settings the cells already had")
	}
}

// TestShapeValidation checks the shared -m/-n/-r validation and defaults.
func TestShapeValidation(t *testing.T) {
	app := New("test")
	app.SetOutput(io.Discard)
	s := app.Shape(256, 2048, 16)
	if err := app.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.M != 256 || s.N != 2048 || s.Overlap != 16 {
		t.Errorf("defaults = %+v", s)
	}
	for _, bad := range [][]string{
		{"-m", "0"}, {"-n", "-5"}, {"-r", "-1"}, {"-m", "x"},
	} {
		app := New("test")
		app.SetOutput(io.Discard)
		app.Shape(256, 2048, 16)
		if err := app.Parse(bad); err == nil {
			t.Errorf("Parse(%v): want error", bad)
		}
	}
}

// TestExitCode pins the exit-status convention: 0 for help, 1 for
// validation failures, 2 for flag-syntax errors.
func TestExitCode(t *testing.T) {
	app := New("test")
	app.SetOutput(io.Discard)
	app.Model()
	if err := app.Parse([]string{"-h"}); ExitCode(err) != 0 {
		t.Errorf("help: ExitCode = %d, want 0", ExitCode(err))
	}
	app = New("test")
	app.SetOutput(io.Discard)
	app.Model()
	if err := app.Parse([]string{"-lockshards", "-1"}); ExitCode(err) != 1 {
		t.Errorf("validation: ExitCode = %d, want 1", ExitCode(err))
	}
	app = New("test")
	app.SetOutput(io.Discard)
	if err := app.Parse([]string{"-nosuch"}); ExitCode(err) != 2 {
		t.Errorf("syntax: ExitCode = %d, want 2", ExitCode(err))
	}
	if ExitCode(nil) != 0 {
		t.Errorf("nil: ExitCode = %d, want 0", ExitCode(nil))
	}
}

// TestValidationErrorPrinted checks Parse reports validation failures
// under the binary's name, and that checks run in registration order.
func TestValidationErrorPrinted(t *testing.T) {
	var buf strings.Builder
	app := New("mybinary")
	app.SetOutput(&buf)
	app.Model()
	first := errors.New("first check failed")
	app.Check(func() error { return first })
	err := app.Parse([]string{"-lockshards", "-3"})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "-lockshards") {
		t.Errorf("model check should fail before the later check, got %v", err)
	}
	if got := buf.String(); !strings.HasPrefix(got, "mybinary: ") {
		t.Errorf("diagnostic %q not prefixed with binary name", got)
	}
}

// TestOutputGroup checks the emission flags bind and -progress is only
// registered on request.
func TestOutputGroup(t *testing.T) {
	app := New("test")
	app.SetOutput(io.Discard)
	o := app.Output(true)
	if err := app.Parse([]string{"-workers", "3", "-json", "a.json", "-csv", "b.csv", "-progress"}); err != nil {
		t.Fatal(err)
	}
	if o.Workers != 3 || o.JSON != "a.json" || o.CSV != "b.csv" || !o.Progress {
		t.Errorf("output = %+v", o)
	}
	opts := o.RunOptions("test")
	if opts.Workers != 3 || opts.Progress == nil {
		t.Errorf("RunOptions = %+v", opts)
	}
	app = New("test")
	app.SetOutput(io.Discard)
	o = app.Output(false)
	if err := app.Parse([]string{"-progress"}); err == nil {
		t.Error("-progress without opt-in: want flag error")
	}
	if o.RunOptions("test").Progress != nil {
		t.Error("progress callback without -progress")
	}
}

// TestOutputRunWritesProfiles checks -cpuprofile and -memprofile wrap the
// run: both files exist and hold a profile afterwards, the cells ran, and a
// path that cannot be created is an error before any cell runs — the
// binaries turn it into their exit-1 diagnostic — never a panic.
func TestOutputRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	app := New("test")
	app.SetOutput(io.Discard)
	o := app.Output(false)
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	if err := app.Parse([]string{"-workers", "1", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	cells := atomio.ShardSweep()[:1]
	results, err := o.Run("test", cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("profiled run returned %+v", results)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, %v — want a non-empty file", path, fi, err)
		}
	}
	for _, bad := range []*Output{
		{CPUProfile: filepath.Join(dir, "no-such-dir", "cpu.pb.gz")},
		{MemProfile: filepath.Join(dir, "no-such-dir", "mem.pb.gz")},
	} {
		if results, err := bad.Run("test", cells); err == nil || results != nil {
			t.Errorf("Run(%+v) = %v, %v; want an error and no run", bad, results, err)
		}
	}
}

// TestHelpIsErrHelp pins the -h path so main functions can exit 0.
func TestHelpIsErrHelp(t *testing.T) {
	app := New("test")
	app.SetOutput(io.Discard)
	if err := app.Parse([]string{"-help"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-help err = %v, want flag.ErrHelp", err)
	}
}
