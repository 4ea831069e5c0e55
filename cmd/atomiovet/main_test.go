package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"atomio/internal/analysis"
)

// TestRepoIsClean runs the full suite over the whole module, pinning the
// repo-wide gate CI enforces: zero findings, every suppression reasoned.
func TestRepoIsClean(t *testing.T) {
	diags, err := Vet("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// BenchmarkVet is the suite's self-benchmark: one full load-and-analyze
// pass over the module. CI runs it with -benchtime 1x under a generous
// wall budget so an accidentally quadratic analyzer shows up as a gate
// failure, not as a slow review comment.
func BenchmarkVet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := Vet("../..", "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) > 0 {
			b.Fatalf("repo not clean: %d finding(s)", len(diags))
		}
	}
}

// TestWriteJSON table-tests the -json encoder: one flat object per
// line, fields in declaration order, no output for no findings.
func TestWriteJSON(t *testing.T) {
	cases := []struct {
		name  string
		diags []analysis.Diagnostic
		want  string
	}{
		{name: "empty", diags: nil, want: ""},
		{
			name: "single",
			diags: []analysis.Diagnostic{{
				Pos:      token.Position{Filename: "internal/pfs/pfs.go", Line: 7, Column: 3},
				Analyzer: "simclock",
				Message:  "go statement inside a cell",
			}},
			want: `{"file":"internal/pfs/pfs.go","line":7,"col":3,"analyzer":"simclock","message":"go statement inside a cell"}` + "\n",
		},
		{
			name: "order and escaping",
			diags: []analysis.Diagnostic{
				{Pos: token.Position{Filename: "a.go", Line: 1, Column: 1}, Analyzer: "shadow", Message: `declaration of "err" shadows`},
				{Pos: token.Position{Filename: "b.go", Line: 2, Column: 2}, Analyzer: "simclock", Message: "time.Now reads the host clock"},
			},
			want: `{"file":"a.go","line":1,"col":1,"analyzer":"shadow","message":"declaration of \"err\" shadows"}` + "\n" +
				`{"file":"b.go","line":2,"col":2,"analyzer":"simclock","message":"time.Now reads the host clock"}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeJSON(&buf, tc.diags); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("writeJSON:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestRunExitCodes pins the process contract: 0 clean, 1 findings, 2
// flag or load failure — with findings on stdout and errors on stderr.
func TestRunExitCodes(t *testing.T) {
	const fixture = "../../internal/analysis/testdata/src/simclock/internal/pfs/threadfix"
	cases := []struct {
		name string
		args []string
		want int
	}{
		{name: "list is clean", args: []string{"-list"}, want: 0},
		{name: "clean package", args: []string{"../../internal/interval"}, want: 0},
		{name: "findings", args: []string{fixture}, want: 1},
		{name: "findings as json", args: []string{"-json", fixture}, want: 1},
		{name: "bad flag", args: []string{"-definitely-not-a-flag"}, want: 2},
		{name: "bad pattern", args: []string{"./no/such/package/anywhere"}, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			switch tc.want {
			case 1:
				if stdout.Len() == 0 {
					t.Errorf("findings must land on stdout")
				}
				if !strings.Contains(stderr.String(), "finding(s)") {
					t.Errorf("finding count must land on stderr, got %q", stderr.String())
				}
			case 2:
				if stderr.Len() == 0 {
					t.Errorf("failures must land on stderr")
				}
			}
		})
	}
}

// TestRunJSONOutput checks that -json output is parseable JSON lines
// carrying the same findings as the text rendering.
func TestRunJSONOutput(t *testing.T) {
	const fixture = "../../internal/analysis/testdata/src/simclock/internal/pfs/threadfix"
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-json", fixture}, &stdout, &stderr); got != 1 {
		t.Fatalf("run -json over fixture = %d, want 1 (stderr: %s)", got, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON records")
	}
	for _, line := range lines {
		var rec jsonDiag
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable record %q: %v", line, err)
		}
		if rec.File == "" || rec.Line == 0 || rec.Analyzer == "" || rec.Message == "" {
			t.Errorf("incomplete record: %+v", rec)
		}
	}
}
