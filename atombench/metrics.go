package main

import "slices"

// How two measurements of one metric are compared by -agree.
const (
	// gated: an end-to-end metric; may worsen by def.Bound (a share of
	// the parent's median) before it counts as a regression.
	gated = iota
	// exact: a count or virtual-time quantity; the simulator is
	// deterministic, so any difference is a regression.
	exact
	// share: a fraction of samples or of a total; compared to ±5 points.
	share
	// timing: a host-time probe or other noisy host reading; ±25 %.
	timing
)

const (
	shareTolerance  = 0.05
	timingTolerance = 0.25
	// setupFloor is the absolute slack setup_s gets on top of its relative
	// bound: short set-ups jitter by more than 25 % of themselves.
	setupFloor = 0.25
)

// def names one metric. The catalogue below is the single definition that
// the text output, the driver's JSON line, -agree and BENCHMARK.json share
// (a test pins BENCHMARK.json to it).
type def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   int
	// Bound is what BENCHMARK.json gates an end-to-end metric by; -agree
	// uses it for the gated kind only.
	Bound float64
}

// endToEnd are the numbers a user of the simulator sees. wall_s, allocs_m,
// alloc_gb and setup_s are host quantities; virtual_mbps is virtual time:
// exact between two runs of one seed, and bounded in BENCHMARK.json only
// because the driver compares runs of different seeds. failed_share is
// printed and compared exactly, but the driver receives failures as the
// attempted/failed counts of the result line, because a BENCHMARK.json
// metric may never read 0.
var endToEnd = []def{
	{"wall_s", "s", "lower", gated, 0.25},
	{"allocs_m", "1e6", "lower", gated, 0.04},
	{"alloc_gb", "GB", "lower", gated, 0.03},
	{"virtual_mbps", "MB/s", "higher", exact, 0.05},
	{"setup_s", "s", "lower", gated, 0.25},
}

var failedShare = def{"failed_share", "ratio", "lower", exact, 0}

// profileLayers are the simulator's modules, the buckets of host_share.*
// (by leaf frame) and host_incl.* (by innermost atomio/internal frame).
var profileLayers = []string{
	"datatype", "fileview", "interval", "index", "core", "mpi", "mpiio",
	"lock", "pfs", "des", "sim", "obs", "trace", "verify", "harness",
}

// leafOnly are the host_share.* buckets for leaf frames outside the
// simulator's own packages.
var leafOnly = []string{"sort", "runtime_alloc", "runtime_gc", "other"}

var phases = []string{"handshake", "lockwait", "transfer", "syncwait", "exchange"}

var perLayer = buildPerLayer()

func buildPerLayer() []def {
	d := []def{
		// Probes: host ns around direct calls into a layer's exported
		// functions, on the views of the workload's probe cell.
		{"datatype.flatten_ns_per_extent", "ns", "lower", timing, 0},
		{"datatype.extents", "count", "lower", exact, 0},
		{"fileview.map_ns_per_seg", "ns", "lower", timing, 0},
		{"interval.subtract_ns_per_extent", "ns", "lower", timing, 0},
		{"index.sweep_ns_per_extent", "ns", "lower", timing, 0},
		{"index.clipall_ns_per_extent", "ns", "lower", timing, 0},
		{"core.matrix_ns", "ns", "lower", timing, 0},
		{"core.color_ns", "ns", "lower", timing, 0},
		{"core.clip_rank_ns", "ns", "lower", timing, 0},
		{"core.wire_ns_per_extent", "ns", "lower", timing, 0},
		{"mpi.allgather_ns_per_msg", "ns", "lower", timing, 0},
		{"des.switch_ns", "ns", "lower", timing, 0},
		{"lock.cycle_ns", "ns", "lower", timing, 0},
		{"pfs.writev_ns_per_seg", "ns", "lower", timing, 0},
		{"pfs.store_ns_per_mb", "ns", "lower", timing, 0},
		{"verify.check_ns_per_mb", "ns", "lower", timing, 0},
		{"fault.generate_ns", "ns", "lower", timing, 0},
		{"runner.overhead_ns_per_cell", "ns", "lower", timing, 0},
		{"harness.cell_ms_p50", "ms", "lower", timing, 0},
		{"harness.cell_ms_p98", "ms", "lower", timing, 0},
		{"harness.cell_ms_tail", "ms", "lower", timing, 0},
		{"harness.cell_tail_pct", "%", "higher", exact, 0},

		// Counts: exact, from the traced pass's obs metrics registry.
		{"mpi.msgs", "count", "lower", exact, 0},
		{"mpi.bytes", "B", "lower", exact, 0},
		{"mpi.msgs_allgather", "count", "lower", exact, 0},
		{"lock.requests", "count", "lower", exact, 0},
		{"lock.wait_vms_p50", "ms", "lower", exact, 0},
		{"lock.wait_vms_p99", "ms", "lower", exact, 0},
		{"pfs.requests", "count", "lower", exact, 0},
		{"pfs.qdepth_max", "count", "lower", exact, 0},
		{"pfs.wal_appends", "count", "lower", exact, 0},
		{"pfs.wal_replays", "count", "lower", exact, 0},
		{"des.parks", "count", "lower", exact, 0},
		{"sim.events", "count", "lower", exact, 0},
	}
	for _, p := range phases {
		d = append(d, def{"phase." + p + "_vshare", "ratio", "lower", exact, 0})
	}
	d = append(d,
		def{"core.written_ratio", "ratio", "lower", exact, 0},
		def{"verify.serializable", "count", "higher", exact, 0},
		def{"verify.torn", "count", "lower", exact, 0},
		def{"verify.recovered", "count", "lower", exact, 0},

		// Host readings of the traced pass.
		def{"host.ns_per_event", "ns", "lower", timing, 0},
		def{"host.gc_cycles", "count", "lower", timing, 0},
		def{"host.gc_pause_ms", "ms", "lower", timing, 0},
		def{"host.peak_rss_mb", "MB", "lower", timing, 0},
		def{"obs.overhead_share", "ratio", "lower", share, 0},
	)
	for _, l := range slices.Concat(profileLayers, leafOnly) {
		d = append(d, def{"host_share." + l, "ratio", "lower", share, 0})
	}
	for _, l := range append(slices.Clone(profileLayers), "other") {
		d = append(d, def{"host_incl." + l, "ratio", "lower", share, 0})
	}
	return d
}

// lookup finds a metric's definition by name.
func lookup(name string) (def, bool) {
	if name == failedShare.Name {
		return failedShare, true
	}
	for _, list := range [][]def{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return def{}, false
}
