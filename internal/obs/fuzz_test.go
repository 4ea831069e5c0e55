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
// Report renders without panicking. The seeds are the trace of a small
// traced run (locking on two ranks: sched, mpi, lock, pfs and phase events
// and a metrics trailer with counters, a gauge and histograms), that trace
// cut off in the middle of a line, and a header followed by empty lines.
func FuzzReadJSONL(f *testing.F) {
	res, err := harness.Experiment{
		Platform: platform.Origin2000(), M: 8, N: 64, Procs: 2, Overlap: 4,
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
	f.Add(trace.Bytes()[:trace.Len()/2])
	f.Add([]byte(`{"schema":"` + obs.SchemaJSONL + `","procs":2}` + "\n\n  \n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		td, err := obs.ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		obs.Report(td)
	})
}
