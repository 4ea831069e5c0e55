package index

// Benchmarks measuring the asymptotic win of the index structures over the
// linear scans they replaced. The headline pair is the overlap-matrix build
// at P=512 ranks with 1024 extents each: the sweep must beat the pairwise
// merge baseline by >= 5x (the PR's acceptance bar); in practice the gap is
// orders of magnitude.

import (
	"fmt"
	"testing"

	"atomio/internal/interval"
)

// columnViews builds P interleaved column-wise views with extentsPerRank
// rows each, width w, and ov bytes of overlap between neighbouring ranks —
// the shape of the paper's Figure 3(b) pattern at scale.
func columnViews(p, extentsPerRank int, w, ov int64) []interval.List {
	views := make([]interval.List, p)
	stride := int64(p) * w
	for r := range views {
		l := make(interval.List, extentsPerRank)
		for i := range l {
			l[i] = interval.Extent{Off: int64(i)*stride + int64(r)*w, Len: w + ov}
		}
		views[r] = l
	}
	return views
}

// linearOverlaps is the pre-index implementation of the overlap matrix:
// P²/2 pairwise list merges (interval.List.Overlaps).
func linearOverlaps(views []interval.List) [][]bool {
	p := len(views)
	w := make([][]bool, p)
	for i := range w {
		w[i] = make([]bool, p)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if views[i].Overlaps(views[j]) {
				w[i][j] = true
				w[j][i] = true
			}
		}
	}
	return w
}

func benchSizes(b *testing.B) []struct{ p, e int } {
	sizes := []struct{ p, e int }{{64, 256}, {512, 1024}}
	if testing.Short() {
		sizes = sizes[:1]
	}
	return sizes
}

func BenchmarkOverlapMatrixSweep(b *testing.B) {
	for _, sz := range benchSizes(b) {
		views := columnViews(sz.p, sz.e, 64, 16)
		b.Run(fmt.Sprintf("P%dxE%d", sz.p, sz.e), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := SweepOverlaps(views)
				if !linked(w, 0, 1) {
					b.Fatal("neighbours must overlap")
				}
			}
		})
	}
}

func BenchmarkOverlapMatrixLinear(b *testing.B) {
	for _, sz := range benchSizes(b) {
		views := columnViews(sz.p, sz.e, 64, 16)
		b.Run(fmt.Sprintf("P%dxE%d", sz.p, sz.e), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := linearOverlaps(views)
				if !w[0][1] {
					b.Fatal("neighbours must overlap")
				}
			}
		})
	}
}

// BenchmarkIndexConflictQuery measures one byte-range conflict check against
// a populated index — the lock table's hot query — versus the linear scan of
// every granted lock it replaced.
func BenchmarkIndexConflictQuery(b *testing.B) {
	const n = 1 << 16 // granted locks
	var ix Index[int]
	var mirror []interval.Extent
	for i := 0; i < n; i++ {
		e := interval.Extent{Off: int64(i) * 128, Len: 96}
		ix.Insert(e, i)
		mirror = append(mirror, e)
	}
	q := interval.Extent{Off: (n / 2) * 128, Len: 200}

	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits := 0
			ix.Overlapping(q, func(interval.Extent, Handle, int) bool {
				hits++
				return true
			})
			if hits != 2 {
				b.Fatalf("hits = %d", hits)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, e := range mirror {
				if e.Overlaps(q) {
					hits++
				}
			}
			if hits != 2 {
				b.Fatalf("hits = %d", hits)
			}
		}
	})
}
