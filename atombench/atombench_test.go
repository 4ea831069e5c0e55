package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"atomio/internal/runner"
)

//go:noinline
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e6; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeProfileOfThisTest(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range stacks {
		total += s.Count
		if slices.ContainsFunc(s.Frames, func(f string) bool { return strings.HasSuffix(f, "atombench.spin") }) {
			spinning += s.Count
		}
	}
	if total < 10 || spinning*2 < total {
		t.Fatalf("%d of %d samples in spin; want most of at least 10", spinning, total)
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestEverySimulatorPackageHasALayer(t *testing.T) {
	out, err := exec.Command("go", "list", internalPrefix+"...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		rel := strings.TrimPrefix(pkg, internalPrefix)
		if top, _, _ := strings.Cut(rel, "/"); top == "analysis" || top == "cli" {
			continue
		}
		layer, ok := packageLayer[rel]
		if !ok {
			t.Errorf("package %s has no layer in packageLayer: its host time would fall into \"other\"", pkg)
			continue
		}
		if !slices.Contains(profileLayers, layer) {
			t.Errorf("package %s maps to %q, which is not a profile layer", pkg, layer)
		}
		seen[layer] = true
		if got := layerOf(pkg + ".(*T[go.shape.int]).Method.func1"); got != layer {
			t.Errorf("layerOf(%s.…) = %q, want %q", pkg, got, layer)
		}
	}
	for _, l := range profileLayers {
		if !seen[l] {
			t.Errorf("layer %s has no package", l)
		}
	}
}

func TestProfileBuckets(t *testing.T) {
	for _, tc := range []struct {
		frames     []string
		leaf, incl string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "atomio/internal/pfs.(*cache).takeDirty", "atomio/internal/pfs.(*Client).Sync"}, "runtime_alloc", "pfs"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "atomio/internal/lock.(*table).acquire"}, "runtime_gc", "lock"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc", "other"},
		{[]string{"internal/reflectlite.Swapper.func9", "sort.insertionSort_func", "sort.Slice", "atomio/internal/interval/index.events", "atomio/internal/core.BuildOverlapMatrix"}, "sort", "index"},
		{[]string{"runtime.memmove", "atomio/internal/mpi.(*Comm).Allgather"}, "other", "mpi"},
		{[]string{"atomio/internal/sim/des.(*eventHeap).push", "atomio/internal/sim/des.(*scheduler).Await"}, "des", "des"},
		{[]string{"atomio/atombench.runPass"}, "other", "other"},
		{nil, "other", "other"},
	} {
		if got := leafBucket(tc.frames); got != tc.leaf {
			t.Errorf("leafBucket(%v) = %s, want %s", tc.frames, got, tc.leaf)
		}
		if got := inclBucket(tc.frames); got != tc.incl {
			t.Errorf("inclBucket(%v) = %s, want %s", tc.frames, got, tc.incl)
		}
	}
}

func TestResolvableTail(t *testing.T) {
	for n, want := range map[int]float64{9: 0, 39: 0, 40: 75, 100: 90, 216: 95, 499: 95, 500: 98, 642: 98, 1000: 99, 10000: 99.9} {
		if got := resolvableTail(n); got != want {
			t.Errorf("resolvableTail(%d) = %g, want %g", n, got, want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 98); got != 5 {
		t.Errorf("p98 = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSeedSelectsOverlap(t *testing.T) {
	for seed, want := range map[uint64]int{0: 14, 1: runner.ScalingOverlap, 2: 18, 3: 20, 4: 14, 5: 16} {
		if got := overlapForSeed(seed); got != want {
			t.Errorf("overlapForSeed(%d) = %d, want %d", seed, got, want)
		}
	}
	for _, name := range []string{"handshake", "lock-scale"} {
		ws, err := selectWorkloads(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range ws[0].Cells(3) {
			want := 20
			if c.Experiment.Platform.Name != "IBM SP" {
				want = runner.ScalingOverlap // the shard sweep keeps its own
			}
			if c.Experiment.Overlap != want {
				t.Errorf("%s: %s has overlap %d, want %d", name, c.ID, c.Experiment.Overlap, want)
			}
		}
	}
	sizes := map[string]int{"figure8": 72, "handshake": 3, "lock-scale": 9, "verified": fleetCells + 14}
	for _, w := range workloads {
		if got := len(w.Cells(1)); got != sizes[w.Name] {
			t.Errorf("%s has %d cells, want %d", w.Name, got, sizes[w.Name])
		}
	}
	if _, err := selectWorkloads("figure8,bogus"); err == nil || !strings.Contains(err.Error(), "lock-scale") {
		t.Errorf("unknown workload error %v does not list the workloads", err)
	}
}

func fleetIDHash(seed uint64) string {
	h := sha256.New()
	for _, c := range runner.FleetGrid(seed, fleetCells) {
		h.Write([]byte(c.ID + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFleetIsStableForASeed(t *testing.T) {
	// The pinned hash is what a later PR compares against: a change to the
	// fleet generator changes the verified workload, and must say so.
	const seed1 = "113cac48fe0d8bcb48638ec2160182c084d25fe5c37620b13a612bcc32324a85"
	if got := fleetIDHash(1); got != seed1 {
		t.Errorf("fleet cell IDs for seed 1 hash to %s, want %s", got, seed1)
	}
	if fleetIDHash(2) != fleetIDHash(2) {
		t.Error("fleet cell IDs differ between two generations from one seed")
	}
	if fleetIDHash(2) == fleetIDHash(1) {
		t.Error("seeds 1 and 2 generate the same fleet")
	}
}

// withWorkload runs f with one extra workload registered.
func withWorkload(t *testing.T, w workload, f func()) {
	t.Helper()
	saved := workloads
	workloads = append(slices.Clone(saved), w)
	defer func() { workloads = saved }()
	f()
}

func driverLine(t *testing.T, stdout string) (line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

func TestDriverRunOfASmallFleet(t *testing.T) {
	small := workload{Name: "small", Cells: func(seed uint64) []runner.Cell { return runner.FleetGrid(seed, 20) }}
	withWorkload(t, small, func() {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"--workload", "small", "--seed", "2", "--seconds", "0.2", "--trace", "0"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		line := driverLine(t, stdout.String())
		if !line.Correct || line.Failed != 0 || line.Attempted < 20 {
			t.Errorf("result line %+v", line)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			// A fleet has no healthy cell, so no virtual throughput.
			if m := line.Metrics[d.Name]; m.Unit != d.Unit || m.Value <= 0 && d.Name != "virtual_mbps" {
				t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
			}
		}
	})
}

// A violated check must fail the run. The violation is made here, not in
// the simulator: the fleet's negative control (and every other cell allowed
// to tear) is taken out, so runner.FleetGate finds nothing torn.
func TestViolatedCheckExitsNonZero(t *testing.T) {
	broken := workload{Name: "broken", Cells: func(seed uint64) []runner.Cell {
		var cells []runner.Cell
		for _, c := range runner.FleetGrid(seed, 40) {
			if c.Experiment.Recovery {
				cells = append(cells, c)
			}
		}
		return cells
	}}
	withWorkload(t, broken, func() {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"--workload", "broken", "--seconds", "0.1", "--trace", "0"}, &stdout, &stderr)
		if code == 0 {
			t.Fatal("exit 0 although the fleet gate cannot pass")
		}
		if !strings.Contains(stderr.String(), "negative control") {
			t.Errorf("stderr does not name the failed check:\n%s", stderr.String())
		}
		if line := driverLine(t, stdout.String()); line.Correct || line.Failed == 0 {
			t.Errorf("result line reports no failure: %+v", line)
		}
	})
}

func TestAgreement(t *testing.T) {
	wall, _ := lookup("wall_s")
	setup, _ := lookup("setup_s")
	msgs, _ := lookup("mpi.msgs")
	incl, _ := lookup("host_incl.pfs")
	probe, _ := lookup("des.switch_ns")
	mbps, _ := lookup("virtual_mbps")
	v := func(x float64, samples ...float64) value { return value{Value: x, Samples: samples} }
	for _, tc := range []struct {
		name string
		d    def
		a, b value
		want string
	}{
		{"wall within bound", wall, v(10, 9.9, 10, 10.1), v(12, 11.9, 12, 12.1), statusOK},
		{"wall beyond bound", wall, v(10, 9.9, 10, 10.1), v(13, 12.9, 13, 13.1), statusRegressed},
		{"wall faster", wall, v(10, 9.9, 10, 10.1), v(5, 4.9, 5, 5.1), statusOK},
		{"wall noisy", wall, v(10, 8, 10, 13), v(10.5, 10, 10.5, 11), statusUnresolved},
		{"wall noisy but every reading better", wall, v(10, 8, 10, 13), v(7, 6.5, 7, 7.5), statusOK},
		{"virtual throughput equal", mbps, v(100), v(100), statusOK},
		{"virtual throughput differs", mbps, v(100), v(100.001), statusRegressed},
		{"short set-up gets the absolute floor", setup, v(0.02, 0.02, 0.02), v(0.2, 0.2, 0.2), statusOK},
		{"long set-up does not", setup, v(3, 3, 3), v(4, 4, 4), statusRegressed},
		{"count equal", msgs, v(4416), v(4416), statusOK},
		{"count differs", msgs, v(4416), v(4415), statusRegressed},
		{"share within five points", incl, v(0.40), v(0.44), statusOK},
		{"share moved either way", incl, v(0.40), v(0.30), statusRegressed},
		{"probe within a quarter", probe, v(400), v(490), statusOK},
		{"probe slower", probe, v(400), v(520), statusRegressed},
		{"probe faster", probe, v(400), v(100), statusOK},
	} {
		if got := compare(tc.d, tc.a, tc.b, 1, 0); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	if got := compare(probe, v(400), v(520), 1.3, 0); got != statusOK {
		t.Errorf("probe slower by the common shift: %s, want %s", got, statusOK)
	}
	overhead, _ := lookup("obs.overhead_share")
	if got := compare(overhead, v(0.02), v(0.12), 1, 0.08); got != statusOK {
		t.Errorf("overhead within the wall clock's own spread: %s, want %s", got, statusOK)
	}

	dir := t.TempDir()
	write := func(name, digest string, wallS float64) string {
		r := &result{Workload: "figure8", Digest: digest, Metrics: map[string]value{}}
		r.setMedian("wall_s", []float64{wallS, wallS, wallS})
		r.set("mpi.msgs", 7)
		data, err := json.Marshal(report{Workloads: []*result{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow, other := write("a.json", "d1", 10), write("b.json", "d1", 10.5), write("c.json", "d1", 14), write("d.json", "d2", 10)
	for _, tc := range []struct {
		b    string
		code int
	}{{same, 0}, {slow, 1}, {other, 1}} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-agree", a, tc.b}, &stdout, &stderr); code != tc.code {
			t.Errorf("-agree a %s: exit %d, want %d\n%s%s", filepath.Base(tc.b), code, tc.code, stdout.String(), stderr.String())
		}
	}
}

// BENCHMARK.json is written by hand to the driver's schema; this pins it to
// the catalogue the program reports from.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(file.Paths, []string{"atombench"}) || !slices.Equal(file.Command, []string{"bash", "atombench/run.sh"}) {
		t.Errorf("paths %v, command %v", file.Paths, file.Command)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d is %+v, want %s: %s", i, got, w.Name, w.Why)
		}
	}
	same := func(kind string, got []metric, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.Bound || d.Bound > 0.25) {
				t.Errorf("%s: bound of %s", kind, d.Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the schema allows 128", len(perLayer))
	}
}
