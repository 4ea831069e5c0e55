package core

import (
	"strings"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
)

// OverlapMatrix is the paper's P×P matrix W of Figure 5 stored by its ones:
// w[i] lists, ascending, the ranks j whose views overlap rank i's (W[i][j]
// true). The diagonal is empty by construction. Rows hold O(P + edges)
// entries where the matrix holds P² cells; Dense and String give back the
// matrix itself, to print Figures 5 and 6.
type OverlapMatrix [][]int32

// BuildOverlapMatrix computes W from every rank's file extents. The paper
// has each process build it locally after the view exchange ("The file
// views are used to construct the overlapping matrix locally"); W is a pure
// function of the exchanged views, so Coloring evaluates it once per
// collective and shares the result (see shared), at no virtual cost on any
// rank. It runs the streamed merge-sweep of internal/interval/index — one
// O(E log P) pass over all P views — instead of P²/2 pairwise list merges.
func BuildOverlapMatrix(views []interval.List) OverlapMatrix {
	return OverlapMatrix(index.SweepOverlaps(views))
}

// BuildOverlapMatrixFromSpans computes a conservative W from bounding spans
// only (two spans that intersect are treated as overlapping even if the
// underlying non-contiguous views interleave without sharing bytes). It
// shares the sweep-line core with BuildOverlapMatrix — spans are
// one-extent views — so span mode and exact mode cannot drift apart.
func BuildOverlapMatrixFromSpans(spans []interval.Extent) OverlapMatrix {
	return OverlapMatrix(index.SweepSpans(spans))
}

// Dense returns W as the P×P boolean matrix.
func (w OverlapMatrix) Dense() [][]bool {
	out := make([][]bool, len(w))
	for i, row := range w {
		out[i] = make([]bool, len(w))
		for _, j := range row {
			out[i][j] = true
		}
	}
	return out
}

// String renders W as 0/1 rows, matching the paper's Figure 6 notation.
func (w OverlapMatrix) String() string { return FormatMatrix(w.Dense()) }

// FormatMatrix renders a boolean matrix as 0/1 rows, Figure 6's notation.
func FormatMatrix(w [][]bool) string {
	var b strings.Builder
	for i, row := range w {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			if v {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// GreedyColor implements the paper's Figure 5 greedy graph-coloring: visit
// processes in rank order and give each the lowest color used by none of
// its already-colored neighbours. It returns each rank's color and the
// number of colors (= I/O phases). Like W it is the same on every rank, and
// Coloring computes it once per collective; both returned values are then
// shared and read-only. It walks W's rows once, in O(P + edges), with one
// scratch: taken[c] == i+1 marks color c as used by a neighbour of rank i.
//
// For the paper's column-wise partitioning, where W is tridiagonal, this
// yields 2 colors: even ranks then odd ranks (Figure 6).
func GreedyColor(w OverlapMatrix) (colors []int, numColors int) {
	colors = make([]int, len(w))
	taken := make([]int, len(w)) // a rank has fewer neighbours than P, so colors stay below P
	for i, row := range w {
		for _, j := range row {
			if int(j) < i {
				taken[colors[j]] = i + 1
			}
		}
		c := 0
		for taken[c] == i+1 {
			c++
		}
		colors[i] = c
		numColors = max(numColors, c+1)
	}
	return colors, numColors
}

// ClipForRank returns the part of views[rank] that rank actually writes
// under the process-rank ordering policy: its view minus the union of all
// higher ranks' views ("the higher ranked process wins the right to access
// the overlapped regions while others surrender their writes", §3.3.2).
// It is the per-rank definition index.ClipAll is tested against; RankOrder
// itself shares one ClipAll per collective.
func ClipForRank(views []interval.List, rank int) interval.List {
	var higher interval.List
	for j := rank + 1; j < len(views); j++ {
		higher = append(higher, views[j]...)
	}
	return views[rank].Subtract(higher)
}
