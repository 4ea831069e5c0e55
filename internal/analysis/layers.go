package analysis

// This file is the machine-readable form of the layer map in
// docs/ARCHITECTURE.md. The layering analyzer rejects any intra-module
// import not sanctioned here, and any package the table does not cover —
// so adding a package or an edge to the system means adding it here, in
// review, next to the rationale.
//
// Paths are module-relative: "" is the public facade (the module root
// package), "internal/lock" an internal package. Both Match and Allow
// entries are segment-aware subtree prefixes ("internal/pfs" covers
// "internal/pfs/scenario"; "internal/mpi" does not cover
// "internal/mpiio"), except that the empty string matches exactly the
// facade root. The most specific (longest) Match wins.

// Layer grants one package subtree its permitted intra-module imports.
type Layer struct {
	Match string   // subtree this rule governs
	Allow []string // intra-module import subtrees it may use
	Why   string   // the contract, in one line
}

// Layers is the package DAG. Order is documentation (top of the diagram
// first); matching uses longest-Match, not order.
var Layers = []Layer{
	{
		Match: "examples",
		Allow: []string{""},
		Why:   "examples demonstrate the public facade and nothing else",
	},
	{
		Match: "cmd",
		Allow: []string{"", "internal/cli"},
		Why:   "binaries speak facade + the shared flag layer; no private wiring",
	},
	{
		Match: "cmd/figure8",
		Allow: []string{"", "internal/cli", "internal/harness"},
		Why:   "figure8 renders harness.Result cells directly (rendering helpers aside, per ARCHITECTURE.md)",
	},
	{
		Match: "cmd/atomcheck",
		Allow: []string{"", "internal/cli", "internal/core", "internal/harness", "internal/platform"},
		Why:   "atomcheck drives single experiments and Figure 5 conflict rendering below the facade grids",
	},
	{
		Match: "cmd/atomiovet",
		Allow: []string{"internal/analysis"},
		Why:   "the vet driver sees only the analysis framework, never the simulator",
	},
	{
		Match: "cmd/atomtrace",
		Allow: []string{"internal/obs"},
		Why:   "the trace analyzer reads atomio.trace/v1 files; it never runs the simulator",
	},
	{
		Match: "",
		Allow: []string{"internal/core", "internal/harness", "internal/obs", "internal/pfs", "internal/platform", "internal/runner", "internal/sim", "internal/verify"},
		Why:   "the facade re-exports internals; it is the one package allowed to see across layers",
	},
	{
		Match: "internal/cli",
		Allow: []string{""},
		Why:   "shared flags bind to facade options only",
	},
	{
		Match: "internal/analysis",
		Allow: []string{"internal/analysis"},
		Why:   "the checker must not depend on the code it checks",
	},
	{
		Match: "internal/runner",
		Allow: []string{"internal/core", "internal/harness", "internal/obs", "internal/pfs", "internal/platform", "internal/sim", "internal/verify"},
		Why:   "grids orchestrate harness cells; the fleet generates fault scripts and gates on verdicts",
	},
	{
		Match: "internal/harness",
		Allow: []string{"internal/core", "internal/datatype", "internal/interval", "internal/lock", "internal/mpi", "internal/mpiio", "internal/obs", "internal/pfs", "internal/platform", "internal/sim", "internal/trace", "internal/verify", "internal/workload"},
		Why:   "one experiment cell assembles the whole stack",
	},
	{
		Match: "internal/verify",
		Allow: []string{"internal/interval", "internal/pfs"},
		Why:   "atomicity checking reads file bytes and extents",
	},
	{
		Match: "internal/mpiio",
		Allow: []string{"internal/core", "internal/datatype", "internal/fileview", "internal/interval", "internal/lock", "internal/mpi", "internal/obs", "internal/pfs"},
		Why:   "MPI_File handles tie communicator, file system, locks, views, and strategy together",
	},
	{
		Match: "internal/core",
		Allow: []string{"internal/fileview", "internal/interval", "internal/lock", "internal/mpi", "internal/obs", "internal/pfs", "internal/trace"},
		Why:   "the paper's strategies; never the harness or runner above them",
	},
	{
		Match: "internal/platform",
		Allow: []string{"internal/lock", "internal/mpi", "internal/pfs", "internal/sim"},
		Why:   "Table 1 profiles parameterize the machine model",
	},
	{
		Match: "internal/fileview",
		Allow: []string{"internal/datatype", "internal/interval"},
		Why:   "views flatten datatypes onto extents",
	},
	{
		Match: "internal/workload",
		Allow: []string{"internal/datatype"},
		Why:   "partitioning patterns build datatypes",
	},
	{
		Match: "internal/datatype",
		Allow: []string{"internal/interval"},
		Why:   "derived datatypes reduce to extents",
	},
	{
		Match: "internal/mpi",
		Allow: []string{"internal/obs", "internal/sim"},
		Why:   "message passing advances virtual clocks; it never sees storage (mpiio composes the two)",
	},
	{
		Match: "internal/lock",
		Allow: []string{"internal/interval", "internal/obs", "internal/sim"},
		Why:   "byte-range locks are extent algebra under virtual time",
	},
	{
		Match: "internal/pfs",
		Allow: []string{"internal/interval", "internal/obs", "internal/pfs", "internal/sim"},
		Why:   "striped storage is extent algebra under virtual time; scenario profiles wrap pfs configs",
	},
	{
		Match: "internal/trace",
		Allow: []string{"internal/obs", "internal/sim"},
		Why:   "phase traces are labelled virtual durations",
	},
	{
		Match: "internal/obs",
		Allow: []string{"internal/interval", "internal/sim"},
		Why:   "event tracing is virtual-time spans over byte ranges and metrics; every layer above extent algebra may emit into it, it sees none of them",
	},
	{
		Match: "internal/interval",
		Allow: []string{"internal/interval"},
		Why:   "extent algebra stands alone",
	},
	{
		Match: "internal/sim/des",
		Allow: []string{"internal/sim"},
		Why:   "the event-loop scheduler implements the sim engine contract and sees nothing but sim types",
	},
	{
		Match: "internal/sim/fault",
		Allow: []string{"internal/sim"},
		Why:   "fault scripts are pure data over virtual time; consumers above interpret them",
	},
	{
		Match: "internal/sim",
		Allow: []string{},
		Why:   "virtual time is the bottom of the stack and imports nothing above the stdlib",
	},
}

// LayerFor returns the most specific rule covering module-relative
// package path p, or nil if the table does not cover it.
func LayerFor(p string) *Layer {
	var best *Layer
	for i := range Layers {
		l := &Layers[i]
		if !HasPathPrefix(p, l.Match) {
			continue
		}
		if best == nil || len(l.Match) > len(best.Match) {
			best = l
		}
	}
	return best
}
