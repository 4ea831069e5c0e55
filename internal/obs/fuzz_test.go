package obs_test

import (
	"bytes"
	"testing"

	"atomio/internal/core"
	"atomio/internal/harness"
	"atomio/internal/obs"
	"atomio/internal/platform"
)

// FuzzReadJSONL: ReadJSONL either rejects its input or returns a trace that
// Report renders — dependency graph and critical path included — without
// panicking or hanging. The seeds are the traces of two small traced runs
// (locking on two ranks: sched, mpi, lock, pfs and phase events and a
// metrics trailer with counters, a gauge and histograms; column-wise
// locking on three ranks, whose grants wait out each other's releases),
// the first cut off in the middle of a line, a header followed by empty
// lines, and a hostile trace: actors outside [0, procs), negative
// durations and lengths, a grant no release overlaps, a recv before its
// send and a duplicate (actor, seq).
func FuzzReadJSONL(f *testing.F) {
	for i, procs := range []int{2, 3} {
		res, err := harness.Experiment{
			Platform: platform.Origin2000(), M: 8, N: 32 * procs, Procs: procs, Overlap: 4,
			Pattern: harness.ColumnWise, Strategy: core.Locking{}, TraceEvents: true,
		}.Run()
		if err != nil {
			f.Fatal(err)
		}
		var trace bytes.Buffer
		if err := obs.WriteJSONL(&trace, res.Events); err != nil {
			f.Fatal(err)
		}
		f.Add(trace.Bytes())
		if i == 0 {
			f.Add(trace.Bytes()[:trace.Len()/2])
		}
	}
	f.Add([]byte(`{"schema":"` + obs.SchemaJSONL + `","procs":2}` + "\n\n  \n"))
	f.Add([]byte(`{"schema":"` + obs.SchemaJSONL + `","procs":2}
{"t":5,"a":-3,"l":"lock","k":"release","off":10,"len":-4,"dur":-7}
{"t":9,"a":7,"l":"lock","k":"grant","off":-20,"len":100,"dur":-2}
{"t":1,"a":1,"l":"lock","k":"grant","off":9000,"len":5,"dur":40}
{"t":2,"a":1,"s":1,"l":"mpi","k":"recv","tag":"bcast","peer":0}
{"t":3,"s":1,"l":"mpi","k":"send","tag":"bcast","peer":1}
{"t":4,"s":1,"l":"mpi","k":"coll","tag":"barrier","dur":-1,"aux":3}
{"t":4,"a":1,"s":1,"l":"mpi","k":"coll","tag":"barrier","dur":9,"aux":3}
`))
	f.Fuzz(func(t *testing.T, in []byte) {
		td, err := obs.ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		obs.Report(td)
	})
}
