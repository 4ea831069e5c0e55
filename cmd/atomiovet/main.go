// Command atomiovet is the repo's static-analysis gate: one multichecker
// binary running the custom contract analyzers (detwalk, simclock,
// layering, registry) alongside the vet-hardening passes (shadow, nilness)
// over every package. It machine-enforces the invariants the determinism
// argument rests on — among them that simulator packages stay on the
// engine's one thread, with no goroutines and no locks — and only those
// no test or `go vet` pass checks:
// each analyzer's catalogued mutant (testdata/mutants) passes every other
// check. CI runs `go run ./cmd/atomiovet ./...` as the lint job and fails
// on any diagnostic. Exceptions are written in the code as
// `//atomiovet:allow <analyzer> <reason>` comments — the suppression
// parser rejects allows with no reason, unknown analyzer names, and
// stale allows that no longer fire.
//
// Exit codes: 0 means clean, 1 means findings, 2 means the flags or the
// package load failed. -json renders findings as JSON-lines records for
// editors and CI annotators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"atomio/internal/analysis"
	"atomio/internal/analysis/detwalk"
	"atomio/internal/analysis/layering"
	"atomio/internal/analysis/load"
	"atomio/internal/analysis/registrycheck"
	"atomio/internal/analysis/simclock"
	"atomio/internal/analysis/stdvet"
)

// analyzers is the full suite, custom contracts first.
var analyzers = []*analysis.Analyzer{
	detwalk.Analyzer,
	simclock.Analyzer,
	layering.Analyzer,
	registrycheck.Analyzer,
	stdvet.Shadow,
	stdvet.Nilness,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected so tests can pin the
// rendering and exit-code contract: 0 clean, 1 findings, 2 flag or
// load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atomiovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "render findings as JSON-lines records on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: atomiovet [-list] [-json] [packages]\n\natomio's static-analysis suite; packages default to ./...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	diags, err := Vet(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "atomiovet:", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "atomiovet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "atomiovet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiag is one -json record: a flat object per finding, one object
// per line, in the diagnostics' sorted order.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON renders diags as JSON lines.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		rec := jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Vet loads the packages matching patterns (relative to dir) and runs
// the whole suite plus the suppression filter, returning the surviving
// diagnostics in position order.
func Vet(dir string, patterns ...string) ([]analysis.Diagnostic, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	var out []analysis.Diagnostic
	for _, p := range pkgs {
		target := &analysis.Target{Path: p.Path, Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info}
		diags, err := analysis.Run(target, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, analysis.Suppress(p.Fset, p.Files, diags, names, names)...)
	}
	analysis.Sort(out)
	return out, nil
}
