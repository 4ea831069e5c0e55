package core

import (
	"strings"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
)

// OverlapMatrix is the P×P boolean matrix W of the paper's Figure 5:
// W[i][j] is true when process i's file view overlaps process j's. The
// diagonal is false by construction.
type OverlapMatrix [][]bool

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

// Degree returns the number of processes rank i overlaps.
func (w OverlapMatrix) Degree(i int) int {
	n := 0
	for _, b := range w[i] {
		if b {
			n++
		}
	}
	return n
}

// HasAnyOverlap reports whether any pair of processes overlaps; if not,
// every strategy degenerates to a plain concurrent write.
func (w OverlapMatrix) HasAnyOverlap() bool {
	for i := range w {
		for _, b := range w[i] {
			if b {
				return true
			}
		}
	}
	return false
}

// String renders W as 0/1 rows, matching the paper's Figure 6 notation.
func (w OverlapMatrix) String() string {
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
// shared and read-only.
//
// For the paper's column-wise partitioning, where W is tridiagonal, this
// yields 2 colors: even ranks then odd ranks (Figure 6).
func GreedyColor(w OverlapMatrix) (colors []int, numColors int) {
	p := len(w)
	colors = make([]int, p)
	for i := range colors {
		colors[i] = -1
	}
	for i := 0; i < p; i++ {
		used := make([]bool, p)
		for j := 0; j < i; j++ {
			if w[i][j] && colors[j] >= 0 {
				used[colors[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[i] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	if p > 0 && numColors == 0 {
		numColors = 1
	}
	return colors, numColors
}

// ValidColoring reports whether colors assigns different colors to every
// overlapping pair — the invariant the property tests pin down.
func ValidColoring(w OverlapMatrix, colors []int) bool {
	for i := range w {
		for j := range w[i] {
			if w[i][j] && colors[i] == colors[j] {
				return false
			}
		}
	}
	return true
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
