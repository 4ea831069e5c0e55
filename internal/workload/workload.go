// Package workload generates the paper's overlapping access patterns: the
// row-wise and column-wise 2-D partitionings of §3.1/Figure 3 and the
// block-block ghost-cell partitioning of Figure 1.
//
// All patterns describe an M×N array of bytes stored row-major in a shared
// file, partitioned over P processes with R rows/columns of overlap between
// neighbouring subdomains (R even). Each rank's piece is returned as the
// subarray filetype of the paper's Figure 4 plus the matching buffer size.
package workload

import (
	"fmt"

	"atomio/internal/datatype"
)

// Piece is one rank's share of a partitioned array.
type Piece struct {
	// Filetype is the subarray datatype selecting the rank's file region;
	// use it with a zero displacement and byte etype. It is a value: a
	// caller that keeps the piece can lend &Filetype as the Datatype of a
	// view, which boxes nothing.
	Filetype datatype.Subarray
	// BufBytes is the number of bytes the rank writes (the size of its
	// sub-array).
	BufBytes int64
	// Rows and Cols are the sub-array shape, for buffer construction.
	Rows, Cols int
	// StartRow and StartCol locate the sub-array in the global array.
	StartRow, StartCol int
}

func validate(m, n, p, r int) error {
	switch {
	case m <= 0 || n <= 0:
		return fmt.Errorf("workload: array %dx%d must be positive", m, n)
	case p <= 0:
		return fmt.Errorf("workload: process count %d must be positive", p)
	case r < 0 || r%2 != 0:
		return fmt.Errorf("workload: overlap %d must be even and non-negative", r)
	default:
		return nil
	}
}

// ColumnWise partitions an M×N byte array over P ranks along the least
// significant (column) axis with R overlap columns between neighbours
// (Figure 3(b)): interior ranks own N/P+R columns starting at
// rank*N/P - R/2; the two boundary ranks own R/2 fewer.
func ColumnWise(m, n, p, r, rank int) (Piece, error) {
	if err := validate(m, n, p, r); err != nil {
		return Piece{}, err
	}
	if rank < 0 || rank >= p {
		return Piece{}, fmt.Errorf("workload: rank %d out of range [0,%d)", rank, p)
	}
	if n%p != 0 {
		return Piece{}, fmt.Errorf("workload: N=%d not divisible by P=%d", n, p)
	}
	w := n / p
	if r > w {
		return Piece{}, fmt.Errorf("workload: overlap %d exceeds partition width %d", r, w)
	}
	start := rank*w - r/2
	width := w + r
	if rank == 0 {
		start = 0
		width = w + r/2
	}
	if rank == p-1 {
		width = n - start
	}
	if p == 1 {
		start, width = 0, n
	}
	ft := datatype.NewSubarray([]int{m, n}, []int{m, width}, []int{0, start}, datatype.Byte)
	return Piece{
		Filetype: ft,
		BufBytes: int64(m) * int64(width),
		Rows:     m, Cols: width,
		StartRow: 0, StartCol: start,
	}, nil
}

// RowWise partitions an M×N byte array over P ranks along the most
// significant (row) axis with R overlap rows between neighbours
// (Figure 3(a)). Each rank's file region is contiguous (§3.2).
func RowWise(m, n, p, r, rank int) (Piece, error) {
	if err := validate(m, n, p, r); err != nil {
		return Piece{}, err
	}
	if rank < 0 || rank >= p {
		return Piece{}, fmt.Errorf("workload: rank %d out of range [0,%d)", rank, p)
	}
	if m%p != 0 {
		return Piece{}, fmt.Errorf("workload: M=%d not divisible by P=%d", m, p)
	}
	h := m / p
	if r > h {
		return Piece{}, fmt.Errorf("workload: overlap %d exceeds partition height %d", r, h)
	}
	start := rank*h - r/2
	height := h + r
	if rank == 0 {
		start = 0
		height = h + r/2
	}
	if rank == p-1 {
		height = m - start
	}
	if p == 1 {
		start, height = 0, m
	}
	ft := datatype.NewSubarray([]int{m, n}, []int{height, n}, []int{start, 0}, datatype.Byte)
	return Piece{
		Filetype: ft,
		BufBytes: int64(height) * int64(n),
		Rows:     height, Cols: n,
		StartRow: start, StartCol: 0,
	}, nil
}

// BlockBlock partitions an M×N byte array over a Px×Py process grid with R
// ghost rows/columns around each block (Figure 1): a rank's sub-array
// overlaps its 8 neighbours, and the four R/2×R/2 corners are written by 4
// processes concurrently. rank = row*Py + col.
func BlockBlock(m, n, px, py, r, rank int) (Piece, error) {
	if err := validate(m, n, px*py, r); err != nil {
		return Piece{}, err
	}
	if rank < 0 || rank >= px*py {
		return Piece{}, fmt.Errorf("workload: rank %d out of range [0,%d)", rank, px*py)
	}
	if m%px != 0 || n%py != 0 {
		return Piece{}, fmt.Errorf("workload: %dx%d array not divisible by %dx%d grid", m, n, px, py)
	}
	bh, bw := m/px, n/py
	if r > bh || r > bw {
		return Piece{}, fmt.Errorf("workload: overlap %d exceeds block %dx%d", r, bh, bw)
	}
	brow, bcol := rank/py, rank%py

	rowStart := brow*bh - r/2
	rowEnd := (brow+1)*bh + r/2
	if brow == 0 {
		rowStart = 0
	}
	if brow == px-1 {
		rowEnd = m
	}
	colStart := bcol*bw - r/2
	colEnd := (bcol+1)*bw + r/2
	if bcol == 0 {
		colStart = 0
	}
	if bcol == py-1 {
		colEnd = n
	}
	height, width := rowEnd-rowStart, colEnd-colStart
	ft := datatype.NewSubarray([]int{m, n}, []int{height, width}, []int{rowStart, colStart}, datatype.Byte)
	return Piece{
		Filetype: ft,
		BufBytes: int64(height) * int64(width),
		Rows:     height, Cols: width,
		StartRow: rowStart, StartCol: colStart,
	}, nil
}
