package atomio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atomio/internal/obs"
)

// traceSpec builds the mid-size traced cell the determinism tests run:
// contended enough to exercise the lock, PFS and scheduler layers.
func traceSpec(t *testing.T, strategy string, extra ...Option) *Spec {
	t.Helper()
	opts := append([]Option{
		Platform("Origin2000"), Array(256, 2048), Procs(4), Overlap(8),
		Strategy(strategy), TraceEvents(true),
	}, extra...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// traceBytes runs a spec and serializes its trace as JSONL.
func traceBytes(t *testing.T, s *Spec) []byte {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == nil || res.Metrics == nil {
		t.Fatal("traced run returned no recorder or metrics")
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalAcrossWorkers runs a traced grid on one worker and
// on four: per-cell traces must not depend on host-side parallelism.
func TestTraceByteIdenticalAcrossWorkers(t *testing.T) {
	grid := Grid{
		Platforms:  []string{"Origin2000"},
		Sizes:      []Size{{M: 128, N: 1024, Label: "128 KB"}},
		Procs:      []int{4},
		Strategies: []string{"locking", "coloring", "ordering"},
		Options:    []Option{Overlap(8), TraceEvents(true)},
	}
	runWith := func(workers int) [][]byte {
		cells, err := grid.Cells()
		if err != nil {
			t.Fatal(err)
		}
		results := RunGrid(cells, RunOptions{Workers: workers})
		if err := FirstErr(results); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(results))
		for i, r := range results {
			var buf bytes.Buffer
			if err := WriteTraceJSONL(&buf, r.Result.Events); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	one, four := runWith(1), runWith(4)
	for i := range one {
		if !bytes.Equal(one[i], four[i]) {
			t.Errorf("cell %d trace diverges between 1 and 4 workers", i)
		}
	}
}

// TestPhaseTotalsPinnedToEvents checks the one phase recorder two ways:
// each rank's phase.<p>.ns counter must equal the sum of the durations of
// that rank's phase.span events, for every phase either side mentions.
func TestPhaseTotalsPinnedToEvents(t *testing.T) {
	for _, strategy := range []string{"locking", "coloring", "ordering", "twophase"} {
		t.Run(strategy, func(t *testing.T) {
			s := traceSpec(t, strategy)
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Events == nil {
				t.Fatal("run carries no event recorder")
			}
			fromEvents := make(map[string]map[int]VTime)
			for _, e := range res.Events.Events() {
				if e.Layer != obs.LayerPhase || e.Kind != obs.KindPhaseSpan {
					continue
				}
				if fromEvents[e.Tag] == nil {
					fromEvents[e.Tag] = make(map[int]VTime)
				}
				fromEvents[e.Tag][e.Actor] += e.Dur
			}
			phases := make(map[string]bool)
			for p := range fromEvents {
				phases[p] = true
			}
			for name := range res.Metrics.Counters {
				if p, ok := strings.CutPrefix(name, obs.MetricPhasePrefix); ok {
					phases[strings.TrimSuffix(p, ".ns")] = true
				}
			}
			checked := 0
			for p := range phases {
				for rank := 0; rank < s.Procs; rank++ {
					want := VTime(res.Events.Counter(rank, obs.MetricPhasePrefix+p+".ns"))
					if got := fromEvents[p][rank]; got != want {
						t.Errorf("rank %d phase %s: events sum to %v, counter says %v", rank, p, got, want)
					}
					if want > 0 {
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no non-zero phase counters; property test vacuous")
			}
		})
	}
}

// TestChromeTraceGolden pins the Chrome trace-event export of a small
// deterministic cell against a checked-in fixture (regenerate with
// `go test -run TestChromeTraceGolden -update .`), and spot-checks the
// format contract Perfetto relies on.
func TestChromeTraceGolden(t *testing.T) {
	res, err := Run(
		Platform("Origin2000"), Array(64, 256), Procs(2), Overlap(4),
		Strategy("coloring"), TraceEvents(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.json")
	if *updateAPI {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestChromeTraceGolden -update .`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("Chrome trace changed; if intentional, regenerate with `go test -run TestChromeTraceGolden -update .`")
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("malformed document: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" {
			t.Fatalf("event %q has phase %q, want X or i", e.Name, e.Ph)
		}
		if e.PID != 0 || e.TID < 0 || e.TID >= 2 {
			t.Fatalf("event %q mapped to pid %d tid %d", e.Name, e.PID, e.TID)
		}
	}
}

// TestTraceMetricsOnlyMatchesFull: a TraceLimit(-1) run keeps no event,
// and its merged metrics equal a full trace's on every counter, gauge and
// histogram.
func TestTraceMetricsOnlyMatchesFull(t *testing.T) {
	full, err := traceSpec(t, "locking").Run()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := traceSpec(t, "locking", TraceLimit(-1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bare.Events.Events()); n != 0 {
		t.Errorf("metrics-only run kept %d events", n)
	}
	if len(full.Events.Events()) == 0 || len(full.Metrics.Hists) == 0 {
		t.Fatal("full trace holds no events or histograms; the comparison is vacuous")
	}
	if !reflect.DeepEqual(bare.Metrics, full.Metrics) {
		t.Errorf("metrics differ:\nmetrics only %+v\nfull %+v", bare.Metrics, full.Metrics)
	}
}
