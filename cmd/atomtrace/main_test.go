package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomio/internal/obs"
)

// writeTrace serializes a synthetic ring-allgather trace of procs actors:
// one mpi.coll event per rank, and counters of one 8-byte message from
// every other rank, so the message count is exactly P·(P-1) — the
// quadratic handshake regime.
func writeTrace(t *testing.T, dir string, procs int) string {
	t.Helper()
	rec := obs.NewRecorder(procs, 0)
	// at is sim.VTime; deriving it from the zero Event keeps the binary's
	// import set to internal/obs alone, matching its layering contract.
	at := obs.Event{}.T
	for r := 0; r < procs; r++ {
		rec.Emit(obs.Event{T: at + 1, Actor: r, Layer: obs.LayerMPI, Kind: obs.KindColl,
			Tag: obs.TagAllgather, Peer: -1, Size: int64(8 * (procs - 1)), Dur: at + 2})
		rec.Count(r, obs.MetricMsgs, int64(procs-1))
		rec.Count(r, obs.MetricMsgsPrefix+obs.TagAllgather, int64(procs-1))
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-P%d.jsonl", procs))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSONL(f, rec); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReportsOneTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, 4)
	var out, errOut bytes.Buffer
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"attribution", "allgather", "metrics:", obs.MetricMsgs} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunScalingFitsQuadraticGrowth(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, p := range []int{4, 8, 16, 32} {
		paths = append(paths, writeTrace(t, dir, p))
	}
	var out, errOut bytes.Buffer
	if code := run(append([]string{"-scaling"}, paths...), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	report := out.String()
	if !strings.Contains(report, "message growth") {
		t.Fatalf("no growth line:\n%s", report)
	}
	// P·(P-1) over 4..32 fits a little above 2 (the -1 term steepens the
	// small-P end); anything clearly quadratic and clearly not linear passes.
	var b float64
	if _, err := fmt.Sscanf(report[strings.Index(report, "msgs ~ P^"):], "msgs ~ P^%f", &b); err != nil {
		t.Fatalf("cannot parse exponent: %v\n%s", err, report)
	}
	if b < 1.7 || b > 2.3 {
		t.Errorf("fitted exponent %.2f, want ~2 for the ring allgather", b)
	}
}

func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"a.jsonl", "b.jsonl"}, &out, &errOut); code != 2 {
		t.Errorf("two traces without -scaling: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/trace.jsonl"}, &out, &errOut); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &errOut); code != 1 {
		t.Errorf("malformed trace: exit %d, want 1", code)
	}
}

// TestRunScalingReportsTheCrossover: given locking and handshaking traces of
// the same process counts, -scaling names the smallest P at which the
// fastest handshake finishes first, whatever order slower handshakes of the
// same P come in.
func TestRunScalingReportsTheCrossover(t *testing.T) {
	dir := t.TempDir()
	// last is the trace's final event: its end is the makespan.
	write := func(name string, procs int, last obs.Event, locking bool) string {
		rec := obs.NewRecorder(procs, 0)
		last.Layer, last.Kind = obs.LayerMPI, obs.KindSend
		rec.Emit(last)
		if locking {
			rec.Count(0, obs.MetricLockReqs, int64(procs))
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := obs.WriteJSONL(f, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Locking wins at P=4, loses from P=8 on.
	paths := []string{
		write("lock-16.jsonl", 16, obs.Event{T: 900}, true), write("hs-16.jsonl", 16, obs.Event{T: 300}, false),
		write("lock-4.jsonl", 4, obs.Event{T: 100}, true), write("hs-4.jsonl", 4, obs.Event{T: 200}, false),
		write("lock-8.jsonl", 8, obs.Event{T: 400}, true), write("hs-8.jsonl", 8, obs.Event{T: 250}, false),
		write("slow-hs-8.jsonl", 8, obs.Event{T: 500}, false),
	}
	var out, errOut bytes.Buffer
	if code := run(append([]string{"-scaling"}, paths...), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if want := "handshaking overtakes locking at P=8 (250ns against 400ns)"; !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}
