package workload

import (
	"slices"
	"testing"

	"atomio/internal/interval"
)

func views(t *testing.T, gen func(rank int) (Piece, error), p int) []interval.List {
	t.Helper()
	out := make([]interval.List, p)
	for rank := 0; rank < p; rank++ {
		piece, err := gen(rank)
		if err != nil {
			t.Fatal(err)
		}
		out[rank] = interval.List(piece.Filetype.Flatten()).Normalize()
		if got := piece.Filetype.Size(); got != piece.BufBytes {
			t.Fatalf("rank %d: filetype size %d != BufBytes %d", rank, got, piece.BufBytes)
		}
	}
	return out
}

func TestColumnWiseViews(t *testing.T) {
	// Figure 3(b): M x N over P ranks, R overlap columns. Interior ranks
	// own N/P+R columns; boundary ranks R/2 fewer.
	const m, n, p, r = 8, 32, 4, 4
	var pieces []Piece
	for rank := 0; rank < p; rank++ {
		piece, err := ColumnWise(m, n, p, r, rank)
		if err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, piece)
	}
	if pieces[0].Cols != n/p+r/2 || pieces[p-1].Cols != n/p+r/2 {
		t.Fatalf("boundary widths = %d,%d, want %d", pieces[0].Cols, pieces[p-1].Cols, n/p+r/2)
	}
	for rank := 1; rank < p-1; rank++ {
		if pieces[rank].Cols != n/p+r {
			t.Fatalf("interior rank %d width = %d, want %d", rank, pieces[rank].Cols, n/p+r)
		}
		if pieces[rank].StartCol != rank*n/p-r/2 {
			t.Fatalf("interior rank %d start = %d", rank, pieces[rank].StartCol)
		}
	}
	// Neighbours overlap exactly R columns; non-neighbours are disjoint.
	vs := views(t, func(rank int) (Piece, error) { return ColumnWise(m, n, p, r, rank) }, p)
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			inter := vs[i].Intersect(vs[j]).TotalLen()
			want := int64(0)
			if j == i+1 {
				want = int64(m * r)
			}
			if inter != want {
				t.Fatalf("ranks %d,%d share %d bytes, want %d", i, j, inter, want)
			}
		}
	}
	// The union covers the whole array.
	var union interval.List
	for _, v := range vs {
		union = union.Union(v)
	}
	if !slices.Equal(union, interval.List{{Off: 0, Len: m * n}}) {
		t.Fatalf("union = %v", union)
	}
}

func TestColumnWiseNonContiguousViews(t *testing.T) {
	piece, err := ColumnWise(8, 32, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	flat := piece.Filetype.Flatten()
	if len(flat) != 8 { // one segment per row
		t.Fatalf("column-wise view has %d segments, want 8", len(flat))
	}
}

func TestRowWiseViews(t *testing.T) {
	// Figure 3(a): overlap rows; every view is one contiguous segment.
	const m, n, p, r = 32, 8, 4, 4
	vs := views(t, func(rank int) (Piece, error) { return RowWise(m, n, p, r, rank) }, p)
	for rank, v := range vs {
		if len(v) != 1 {
			t.Fatalf("row-wise rank %d view not contiguous: %v", rank, v)
		}
	}
	for i := 0; i < p-1; i++ {
		inter := vs[i].Intersect(vs[i+1]).TotalLen()
		if inter != int64(r*n) {
			t.Fatalf("ranks %d,%d share %d bytes, want %d", i, i+1, inter, r*n)
		}
	}
	var union interval.List
	for _, v := range vs {
		union = union.Union(v)
	}
	if !slices.Equal(union, interval.List{{Off: 0, Len: m * n}}) {
		t.Fatalf("union = %v", union)
	}
}

func TestBlockBlockOverlapCounts(t *testing.T) {
	// Figure 1: on a 3x3 grid, the center rank overlaps all 8 neighbours,
	// and each corner of its ghost region is shared by 4 ranks.
	const m, n, px, py, r = 24, 24, 3, 3, 4
	p := px * py
	vs := views(t, func(rank int) (Piece, error) { return BlockBlock(m, n, px, py, r, rank) }, p)

	center := 4 // rank (1,1)
	overlapping := 0
	for j := 0; j < p; j++ {
		if j != center && vs[center].Overlaps(vs[j]) {
			overlapping++
		}
	}
	if overlapping != 8 {
		t.Fatalf("center overlaps %d ranks, want 8", overlapping)
	}

	// A corner byte of the center block's ghost ring: global position
	// (row 8-1, col 8-1) = just inside blocks (0,0),(0,1),(1,0),(1,1).
	cornerOff := int64((m/px-1)*n + (n/py - 1))
	covering := 0
	for j := 0; j < p; j++ {
		if vs[j].Overlaps(interval.List{{Off: cornerOff, Len: 1}}) {
			covering++
		}
	}
	if covering != 4 {
		t.Fatalf("corner byte covered by %d ranks, want 4 (Figure 1)", covering)
	}

	// Union covers the array exactly.
	var union interval.List
	for _, v := range vs {
		union = union.Union(v)
	}
	if !slices.Equal(union, interval.List{{Off: 0, Len: m * n}}) {
		t.Fatalf("union = %v", union)
	}
}

func TestSingleProcessOwnsEverything(t *testing.T) {
	for _, gen := range []func() (Piece, error){
		func() (Piece, error) { return ColumnWise(4, 8, 1, 2, 0) },
		func() (Piece, error) { return RowWise(8, 4, 1, 2, 0) },
		func() (Piece, error) { return BlockBlock(8, 8, 1, 1, 2, 0) },
	} {
		piece, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if piece.BufBytes != 32 && piece.BufBytes != 64 {
			t.Fatalf("single-process piece = %d bytes", piece.BufBytes)
		}
		v := interval.List(piece.Filetype.Flatten()).Normalize()
		if len(v) != 1 || v[0].Off != 0 {
			t.Fatalf("single-process view = %v", v)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]func() (Piece, error){
		"bad rank":        func() (Piece, error) { return ColumnWise(4, 8, 2, 0, 5) },
		"negative rank":   func() (Piece, error) { return RowWise(8, 4, 2, 0, -1) },
		"odd overlap":     func() (Piece, error) { return ColumnWise(4, 8, 2, 3, 0) },
		"indivisible N":   func() (Piece, error) { return ColumnWise(4, 9, 2, 0, 0) },
		"indivisible M":   func() (Piece, error) { return RowWise(9, 4, 2, 0, 0) },
		"overlap too big": func() (Piece, error) { return ColumnWise(4, 8, 4, 4, 0) },
		"zero array":      func() (Piece, error) { return ColumnWise(0, 8, 2, 0, 0) },
		"zero procs":      func() (Piece, error) { return RowWise(8, 4, 0, 0, 0) },
		"bad grid":        func() (Piece, error) { return BlockBlock(8, 8, 3, 3, 0, 0) },
		"bb bad rank":     func() (Piece, error) { return BlockBlock(8, 8, 2, 2, 0, 9) },
		"bb overlap":      func() (Piece, error) { return BlockBlock(8, 8, 2, 2, 6, 0) },
	}
	for name, f := range cases {
		if _, err := f(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPaperDimensionsAreValid(t *testing.T) {
	// The three Figure 8 array sizes with P in {4,8,16} must construct.
	for _, n := range []int{8192, 32768, 262144} {
		for _, p := range []int{4, 8, 16} {
			for rank := 0; rank < p; rank += p - 1 {
				if _, err := ColumnWise(4096, n, p, 64, rank); err != nil {
					t.Fatalf("4096x%d P=%d rank %d: %v", n, p, rank, err)
				}
			}
		}
	}
}
