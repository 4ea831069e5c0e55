package verify

import (
	"testing"

	"atomio/internal/pfs"
	"atomio/internal/sim"
)

// BenchmarkCheckFigure8Cell checks one Figure 8-shaped cell: 16 column-wise
// views of 4096 rows, neighbours overlapping by 64 bytes, each written as
// one lent call in rank order, so every atom is clean. It reports the time
// per view extent.
func BenchmarkCheckFigure8Cell(b *testing.B) {
	const p, rows = 16, 4096
	views := columnViews(p, rows, 512, 32)
	fs := fsOf(pfs.Config{Servers: 4, StripeSize: 64 << 10, StoreData: true})
	for rank, v := range views {
		c, err := fs.Open("f", rank, sim.NewClock(0))
		if err != nil {
			b.Fatal(err)
		}
		c.Write(pfs.Batch{Ext: v})
	}
	extents := 0
	for _, v := range views {
		extents += len(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rep, err := Check(fs, "f", views)
		if err != nil || !rep.Atomic() || rep.Atoms != rows*(p-1) {
			b.Fatalf("report %+v, error %v", rep, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(extents), "ns/extent")
}
