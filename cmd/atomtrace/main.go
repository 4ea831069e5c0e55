// Command atomtrace analyzes atomio.trace/v1 event traces — the JSONL
// files figure8 and sweep write with -trace-out.
//
// Usage:
//
//	atomtrace trace.jsonl
//	atomtrace -scaling trace-P64.jsonl trace-P256.jsonl trace-P1024.jsonl
//
// The default mode prints one trace's attribution report: virtual time and
// bytes per (layer, kind, tag) bucket, per-phase totals, the critical path
// (the longest blocking chain through program order, bcast message edges,
// collective joins and lock-grant edges), and the metrics registry.
//
// -scaling reads several traces of the same workload at different process
// counts and fits the growth exponent of their mpi.msgs counters: the
// handshaking strategies open with a ring allgather of all P file views,
// so their message count grows ~P² — the cost the paper's §4 weighs
// against lock contention. An exponent near 2 confirms the quadratic
// regime; locking traces sit near 1. Given traces of both kinds (one that requested locks is
// a locking run) it reports the smallest P at which a handshake — the
// fastest, when traces of several strategies share a P — ends first.
//
// Exit status is 0 on success, 1 on unreadable or malformed traces, 2 on
// flag errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"atomio/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with injected streams, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atomtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaling := fs.Bool("scaling", false,
		"fit message-count growth across several traces of different process counts")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "atomtrace: no trace files (want atomio.trace/v1 JSONL, see figure8 -trace-out)")
		return 2
	}
	if !*scaling && len(paths) > 1 {
		fmt.Fprintln(stderr, "atomtrace: the attribution report reads one trace; use -scaling for several")
		return 2
	}
	traces := make([]*obs.TraceData, len(paths))
	for i, path := range paths {
		t, err := readTrace(path)
		if err != nil {
			fmt.Fprintf(stderr, "atomtrace: %v\n", err)
			return 1
		}
		traces[i] = t
	}
	if *scaling {
		reportScaling(stdout, paths, traces)
		return 0
	}
	fmt.Fprint(stdout, obs.Report(traces[0]))
	return 0
}

// readTrace decodes one JSONL trace file.
func readTrace(path string) (*obs.TraceData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// reportScaling prints per-trace message counts and makespans in ascending
// process count, the fitted growth exponents for total and allgather
// traffic, and the process count from which the handshake beats locking.
func reportScaling(w io.Writer, paths []string, traces []*obs.TraceData) {
	order := make([]int, len(traces))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return traces[order[a]].Procs < traces[order[b]].Procs
	})
	var total, allgather []obs.ScalingPoint
	// ends[locking?][P] is the shortest makespan among the traces of that
	// kind at P: a sweep writes one trace per handshaking strategy.
	ends := map[bool]map[int]time.Duration{false: {}, true: {}}
	fmt.Fprintf(w, "%-40s %8s %12s %12s %14s\n", "trace", "P", "msgs", "allgather", "makespan")
	for _, i := range order {
		t := traces[i]
		var end time.Duration
		for _, e := range t.Events {
			end = max(end, time.Duration(e.T+e.Dur)) // a run ends with an event
		}
		kind := ends[t.Metrics.Counter(obs.MetricLockReqs) > 0]
		if prev, ok := kind[t.Procs]; !ok || end < prev {
			kind[t.Procs] = end
		}
		sum, ring := t.Metrics.Counter(obs.MetricMsgs), t.Metrics.Counter(obs.MetricMsgsPrefix+obs.TagAllgather)
		fmt.Fprintf(w, "%-40s %8d %12d %12d %14v\n", paths[i], t.Procs, sum, ring, end)
		total = append(total, obs.ScalingPoint{Procs: t.Procs, Msgs: sum})
		allgather = append(allgather, obs.ScalingPoint{Procs: t.Procs, Msgs: ring})
	}
	fmt.Fprintf(w, "\nmessage growth: msgs ~ P^%.2f", obs.FitExponent(total))
	if b := obs.FitExponent(allgather); b != 0 {
		fmt.Fprintf(w, ", allgather ~ P^%.2f", b)
	}
	fmt.Fprintln(w)
	for _, i := range order { // ascending P
		p := traces[i].Procs
		if lock, hs := ends[true][p], ends[false][p]; 0 < hs && hs < lock {
			fmt.Fprintf(w, "handshaking overtakes locking at P=%d (%v against %v)\n", p, hs, lock)
			break
		}
	}
}
