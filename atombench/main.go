// Command atombench is the repository's benchmark. It runs four named
// workloads — grids of simulator cells — in one process, one cell at a
// time on the default event-loop engine, and measures the simulator from
// outside: wall clock, runtime.MemStats, a CPU profile it takes itself,
// the obs metrics registry, and timed calls into each layer's exported
// functions. Host time and virtual time are never mixed: every metric says
// which it is (see README.md).
//
//	go run -C atombench . -seed 1                  every workload, every metric
//	go run -C atombench . -agree a.json b.json     compare two -out files
//
// With -seconds the command runs as BENCHMARK.json's driver expects: one
// workload, timed passes for that long (-trace 0, end-to-end metrics) or
// one timed and one traced pass (-trace 1, per-layer metrics), and a JSON
// object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// header says what produced a set of results.
type header struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Passes     int    `json:"passes"`
	Commit     string `json:"commit"`
	// Model is always "unvalidated": the repository holds no hardware
	// reference numbers, so no accuracy figure is given for virtual time.
	Model string `json:"model"`
}

// report is the content of an -out file.
type report struct {
	Header    header    `json:"header"`
	Workloads []*result `json:"workloads"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value[:min(len(s.Value), 12)]
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atombench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed: selects the fault fleet and the scaling cells' overlap")
	names := fs.String("workload", "", "comma-separated workloads to run (default all: "+strings.Join(workloadNames(), ", ")+")")
	passes := fs.Int("passes", 3, "timed passes per workload")
	out := fs.String("out", "", "write the results as JSON to this file")
	agree := fs.Bool("agree", false, "compare two -out files given as arguments, with the benchmark's own bounds")
	seconds := fs.Float64("seconds", 0, "driver mode: run one workload, measuring for this many seconds")
	trace := fs.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "atombench:", err)
		return 2
	}

	if *agree {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-agree takes two result files"))
		}
		regressed, err := agreeFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return fail(err)
	}
	driver := *seconds > 0
	pl := plan{Seed: *seed, Passes: *passes, Timed: true, Traced: true}
	switch {
	case !driver && *passes < 1:
		return fail(fmt.Errorf("-passes must be at least 1"))
	case driver && len(selected) != 1:
		return fail(fmt.Errorf("-seconds needs exactly one -workload"))
	case driver && *trace == 0:
		pl = plan{Seed: *seed, Seconds: *seconds, Timed: true}
	case driver && *trace == 1:
		pl = plan{Seed: *seed, Passes: 1, Traced: true}
	case driver:
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}

	rep := report{Header: header{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Passes: pl.Passes, Commit: commit(), Model: "unvalidated",
	}}
	h := rep.Header
	fmt.Fprintf(stdout, "# atombench %s nproc=%d GOMAXPROCS=%d seed=%d passes=%d commit=%s\n",
		h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Passes, h.Commit)
	fmt.Fprintln(stdout, "# host metrics vary run to run; virtual metrics and counts repeat exactly; the cost model is unvalidated (no hardware reference)")

	failed := false
	for _, w := range selected {
		res, err := run(w, pl)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		printResult(stdout, res)
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "atombench: %s: check failed: %s\n", w.Name, f)
		}
		failed = failed || res.Failed > 0
		rep.Workloads = append(rep.Workloads, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if driver {
		if err := printDriverLine(stdout, rep.Workloads[0], *trace); err != nil {
			return fail(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printResult writes one `workload metric value unit [n=…]` line per
// metric, end-to-end metrics first, then the catalogue's per-layer order.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s virtual_digest %s cells=%d passes=%d\n", r.Workload, r.Digest, r.Cells, r.Passes)
	for _, d := range slices.Concat(endToEnd, []def{failedShare}, perLayer) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, d.Name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Note != "" {
			line += " (" + v.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// printDriverLine writes the JSON object BENCHMARK.json's driver reads from
// the last line of standard output: the end-to-end metrics of a -trace 0
// run, the per-layer metrics of a -trace 1 run.
func printDriverLine(w io.Writer, r *result, trace int) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		line.Metrics[d.Name] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
