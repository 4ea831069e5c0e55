package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"atomio/internal/obs"
	"atomio/internal/runner"
	"atomio/internal/verify"
)

// plan says how much of a workload to run.
type plan struct {
	Seed uint64
	// Passes is the number of timed passes; with Seconds > 0, timed passes
	// repeat instead until that much measuring time has elapsed (a pass is
	// never cut short).
	Passes  int
	Seconds float64
	// Timed and Traced select the untraced timed passes' metrics and the
	// traced pass with its counts, profile and probes.
	Timed, Traced bool
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a median or percentile.
	N int `json:"n,omitempty"`
	// Samples are the per-pass readings behind an end-to-end median; -agree
	// takes the run-to-run spread from them.
	Samples []float64 `json:"samples,omitempty"`
	// Note qualifies the number in the text output.
	Note string `json:"note,omitempty"`
}

// result is everything one workload reported.
type result struct {
	Workload  string           `json:"workload"`
	Cells     int              `json:"cells"`
	Passes    int              `json:"passes"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Digest    string           `json:"virtual_digest"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64, opts ...func(*value)) {
	d, ok := lookup(name)
	if !ok {
		panic("atombench: metric " + name + " is not in the catalogue")
	}
	val := value{Value: v, Unit: d.Unit}
	for _, o := range opts {
		o(&val)
	}
	r.Metrics[name] = val
}

// setMedian reports the median of per-pass readings and keeps the readings.
func (r *result) setMedian(name string, samples []float64) {
	r.set(name, median(samples), func(v *value) { v.Samples, v.N = samples, len(samples) })
}

func n(count int) func(*value)   { return func(v *value) { v.N = count } }
func note(s string) func(*value) { return func(v *value) { v.Note = s } }

func (r *result) fail(format string, a ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	}
}

// pass is one run of every cell of the workload, one at a time.
type pass struct {
	results []runner.CellResult
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

// runPass runs the cells in order through the runner with a single worker —
// the path `figure8 -workers 1` takes — between two MemStats readings.
func runPass(cells []runner.Cell) pass {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	results := runner.Run(cells, runner.Options{Workers: 1})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return pass{
		results: results,
		wall:    wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}

// cellDigest hashes the virtual outcome of one cell: everything two runs of
// the same cell must agree on.
func cellDigest(r runner.CellResult) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(r.Cell.ID))
	if r.Result != nil {
		var b [8]byte
		put := func(v int64) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		put(int64(r.Result.Makespan))
		put(r.Result.WrittenBytes)
		for _, t := range r.Result.RankTimes {
			put(int64(t))
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// check applies every correctness check to one pass and records violations.
// first holds the cell digests of the first pass; any later pass, traced or
// not, must reproduce them.
func (r *result) check(label string, p pass, first [][sha256.Size]byte) [][sha256.Size]byte {
	digests := make([][sha256.Size]byte, len(p.results))
	var fleet []runner.CellResult
	for i, cr := range p.results {
		r.Attempted++
		digests[i] = cellDigest(cr)
		if msg := checkCell(cr); msg != "" {
			r.fail("%s: %s: %s", label, cr.Cell.ID, msg)
		} else if first != nil && digests[i] != first[i] {
			r.fail("%s: %s: virtual result differs from the first pass", label, cr.Cell.ID)
		}
		if isFleet(cr.Cell) {
			fleet = append(fleet, cr)
		}
	}
	if len(fleet) > 0 {
		if err := runner.FleetGate(fleet); err != nil {
			r.fail("%s: %v", label, err)
		}
	}
	return digests
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of xs (pct in 0..100).
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// tailPercentiles are the percentiles a tail may be reported at.
var tailPercentiles = []float64{75, 90, 95, 98, 99, 99.9}

// resolvableTail returns the highest percentile of tailPercentiles that
// still has at least ten of the n samples beyond it, or 0 when even the
// lowest has fewer: a tail read off fewer samples is noise.
func resolvableTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, safe from rounding
			best = p
		}
	}
	return best
}

// run measures one workload.
func run(w workload, pl plan) (*result, error) {
	res := &result{Workload: w.Name, Metrics: map[string]value{}}
	resetPeakRSS()

	// Set-up is what a user waits for before the first cell of a grid: the
	// cells generated from the seed, and a warm-up on the smallest of them.
	// It is repeated, like a probe, so that setup_s is a median.
	var cells []runner.Cell
	var setups []float64
	_, _, err := repeat(func() (time.Duration, error) {
		start := time.Now()
		cells = w.Cells(pl.Seed)
		warm := runner.Run([]runner.Cell{smallest(cells)}, runner.Options{Workers: 1})
		d := time.Since(start)
		if err := warm[0].Err; err != nil {
			return 0, fmt.Errorf("warm-up cell %s: %w", warm[0].Cell.ID, err)
		}
		setups = append(setups, d.Seconds())
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = len(cells)

	var (
		first     [][sha256.Size]byte
		passes    []pass
		cellWalls []float64
	)
	measuring := time.Now()
	more := func() bool {
		if pl.Seconds > 0 {
			return len(passes) == 0 || time.Since(measuring).Seconds() < pl.Seconds
		}
		return len(passes) < pl.Passes
	}
	for more() {
		p := runPass(cells)
		digests := res.check(fmt.Sprintf("pass %d", len(passes)+1), p, first)
		if first == nil {
			first = digests
		}
		for _, cr := range p.results {
			cellWalls = append(cellWalls, float64(cr.Wall)/1e6)
		}
		passes = append(passes, p)
	}
	res.Passes = len(passes)

	h := sha256.New()
	for _, d := range first {
		h.Write(d[:])
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))

	walls := perPass(passes, func(p pass) float64 { return p.wall.Seconds() })
	if pl.Timed {
		res.setMedian("wall_s", walls)
		res.setMedian("allocs_m", perPass(passes, func(p pass) float64 { return float64(p.mallocs) / 1e6 }))
		res.setMedian("alloc_gb", perPass(passes, func(p pass) float64 { return float64(p.bytes) / 1e9 }))
		res.set("virtual_mbps", virtualMBps(passes[0].results))
		res.setMedian("setup_s", setups)
	}

	if pl.Traced {
		if err := res.traced(w, pl.Seed, cells, first, median(walls)); err != nil {
			return nil, err
		}
		res.set("harness.cell_ms_p50", median(cellWalls), n(len(cellWalls)))
		// A tail is reported only where ten samples lie beyond it: p98
		// needs 500 cell runs, which only the verified workload has.
		tail := resolvableTail(len(cellWalls))
		tailMs, p98 := 0.0, 0.0
		if tail > 0 {
			tailMs = percentile(cellWalls, tail)
		}
		if tail >= 98 {
			p98 = percentile(cellWalls, 98)
		}
		res.set("harness.cell_ms_p98", p98, n(len(cellWalls)))
		res.set("harness.cell_ms_tail", tailMs, n(len(cellWalls)), note(fmt.Sprintf("p%g", tail)))
		res.set("harness.cell_tail_pct", tail)
	}
	if pl.Timed {
		// Last, so that Attempted counts the traced pass too.
		res.set(failedShare.Name, float64(res.Failed)/float64(res.Attempted))
	}
	return res, nil
}

func perPass(passes []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// virtualMBps is Figure 8's quantity aggregated over a pass: useful bytes
// over virtual makespan. Fault-fleet cells are left out: their makespans
// are set by the fault script's outage windows and lease time-outs, not by
// the I/O path, and would make the number a function of the fleet's seed.
func virtualMBps(results []runner.CellResult) float64 {
	var bytes int64
	var seconds float64
	for _, cr := range results {
		if cr.Result == nil || isFleet(cr.Cell) {
			continue
		}
		bytes += cr.Result.ArrayBytes
		seconds += cr.Result.Makespan.Seconds()
	}
	if seconds == 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / seconds
}

// traced runs the traced pass — every cell with the obs metrics registry on
// (events are counted, not kept), under a CPU profile the benchmark itself
// takes — and then the layer probes.
func (r *result) traced(w workload, seed uint64, cells []runner.Cell, first [][sha256.Size]byte, untracedWall float64) error {
	tracedCells := slices.Clone(cells)
	for i := range tracedCells {
		tracedCells[i].Experiment.TraceEvents = true
		tracedCells[i].Experiment.EventLimit = -1
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p := runPass(tracedCells)
	pprof.StopCPUProfile()
	r.check("traced pass", p, first)

	r.counts(p.results)
	events := r.Metrics["sim.events"].Value
	if events > 0 {
		r.set("host.ns_per_event", untracedWall*1e9/events)
	} else {
		r.set("host.ns_per_event", 0)
	}
	r.set("host.gc_cycles", float64(p.gcs))
	r.set("host.gc_pause_ms", float64(p.pauseNs)/1e6)
	r.set("host.peak_rss_mb", peakRSSMB())
	r.set("obs.overhead_share", (p.wall.Seconds()-untracedWall)/untracedWall)

	stacks, err := decodeProfile(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	leaf, incl, total := attribute(stacks)
	for _, l := range slices.Concat(profileLayers, leafOnly) {
		r.set("host_share."+l, ratio(leaf[l], total), n(int(total)))
	}
	for _, l := range append(slices.Clone(profileLayers), "other") {
		r.set("host_incl."+l, ratio(incl[l], total), n(int(total)))
	}

	return r.probes(w, seed)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counts sums the obs metrics registries of the traced pass's cells. Every
// number here is a pure function of the cells and repeats bit for bit.
func (r *result) counts(results []runner.CellResult) {
	var (
		counters       = map[string]int64{}
		waits          obs.Histogram
		qdepth         int64
		rankTime       int64
		written, array int64
		verdicts       = map[verify.Verdict]int{}
	)
	for _, cr := range results {
		if cr.Result == nil {
			continue
		}
		m := cr.Result.Metrics
		for k, v := range m.Counters {
			counters[k] += v
		}
		waits.Merge(m.Hists[obs.MetricLockWait])
		qdepth = max(qdepth, m.Gauge(obs.MetricQueueDepth))
		for _, t := range cr.Result.RankTimes {
			rankTime += int64(t)
		}
		written += cr.Result.WrittenBytes
		array += cr.Result.ArrayBytes
		if v := cr.Result.Verdict; v != "" {
			verdicts[v]++
		}
	}
	direct := map[string]string{
		"mpi.msgs":           obs.MetricMsgs,
		"mpi.bytes":          obs.MetricMsgBytes,
		"mpi.msgs_allgather": obs.MetricMsgsPrefix + obs.TagAllgather,
		"lock.requests":      obs.MetricLockReqs,
		"pfs.requests":       obs.MetricPFSReqs,
		"pfs.wal_appends":    obs.MetricWALAppends,
		"pfs.wal_replays":    obs.MetricWALReplays,
		"des.parks":          obs.MetricParks,
	}
	for name, key := range direct {
		r.set(name, float64(counters[key]))
	}
	// sim.events is the sum of the operation counts above that each stand
	// for one simulated event (mpi.bytes and the allgather subset do not).
	var events int64
	for _, key := range []string{obs.MetricMsgs, obs.MetricLockReqs, obs.MetricPFSReqs, obs.MetricWALAppends, obs.MetricWALReplays, obs.MetricParks} {
		events += counters[key]
	}
	r.set("sim.events", float64(events))
	r.set("lock.wait_vms_p50", float64(waits.Quantile(0.5))/1e6, n(int(waits.Count)))
	r.set("lock.wait_vms_p99", float64(waits.Quantile(0.99))/1e6, n(int(waits.Count)))
	r.set("pfs.qdepth_max", float64(qdepth))
	for _, p := range phases {
		r.set("phase."+p+"_vshare", ratio(counters[obs.MetricPhasePrefix+p+".ns"], rankTime))
	}
	r.set("core.written_ratio", ratio(written, array))
	r.set("verify.serializable", float64(verdicts[verify.Serializable]))
	r.set("verify.torn", float64(verdicts[verify.Torn]))
	r.set("verify.recovered", float64(verdicts[verify.RecoveredSerializable]))
}

// resetPeakRSS returns freed memory to the system and restarts the kernel's
// peak-RSS watermark, so that host.peak_rss_mb belongs to one workload and
// not to whichever ran before it. Where the reset is not possible the peak
// is the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, or 0 where
// /proc does not provide it.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
