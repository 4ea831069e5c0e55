package index

import (
	"fmt"
	"math"
	"slices"

	"atomio/internal/interval"
)

// merger streams the extents of P lists in (Off, list id) order: a P-way
// merge over the heads of the normalized lists, run as a tournament tree —
// one comparison per level for each extent drawn. Normalization makes a
// list's extents disjoint, non-touching, non-empty and ascending, so a list
// has at most one extent open at a time and its next extent opens strictly
// after the previous one closed.
//
// No close is ever scheduled. Each sweep driver keeps the end of every
// list's latest extent and settles closes lazily, when the next extent
// opens: an extent whose end ≤ the opening offset closes first (extents are
// half-open: [a,x) and [x,b) are disjoint). A sweep therefore holds O(P)
// state, whatever the number of extents.
type merger struct {
	lists []interval.List // what is left of each normalized list
	head  []int64         // Off of each list's next extent; MaxInt64 once exhausted
	tree  []int32         // node n holds the winner below it; leaf i is node P+i, the root node 1
	left  int             // extents not yet drawn
}

func newMerger(lists []interval.List) *merger {
	p := len(lists)
	m := &merger{lists: make([]interval.List, p), head: make([]int64, p), tree: make([]int32, 2*p)}
	// Seating the lists one by one builds the tree: a node is last replayed
	// when the last list below it is seated, with every head below it final.
	for i, l := range lists {
		m.lists[i], m.tree[p+i] = l.Normalize(), int32(i)
		m.left += len(m.lists[i])
		m.reseat(i)
	}
	return m
}

// reseat re-reads list id's head and replays its matches up to the root: at
// each node the child with the lower head offset wins, ties to the lower id.
func (m *merger) reseat(id int) {
	m.head[id] = math.MaxInt64
	if l := m.lists[id]; len(l) > 0 {
		m.head[id] = l[0].Off
	}
	for n := (len(m.lists) + id) / 2; n >= 1; n /= 2 {
		a, b := m.tree[2*n], m.tree[2*n+1]
		if m.head[b] < m.head[a] || m.head[b] == m.head[a] && b < a {
			a = b
		}
		m.tree[n] = a
	}
}

// next draws the next extent and the id of its list; call it m.left times.
func (m *merger) next() (interval.Extent, int) {
	id := int(m.tree[1])
	e := m.lists[id][0]
	m.lists[id] = m.lists[id][1:]
	m.left--
	m.reseat(id)
	return e, id
}

// SweepOverlaps computes the overlap graph of the given extent lists as
// adjacency rows: row i lists, ascending and once each, the lists j ≠ i that
// share at least one byte with list i — the columns of the ones in row i of
// the paper's Figure 5 matrix W. One streamed merge does it, in O(E log P +
// found pairs · log degree) for E total extents instead of the O(P²·E) of
// pairwise list merges, and in O(P + edges) memory instead of P² cells.
// When an extent opens, every list still open overlaps it; the lists that
// closed since the last open are dropped in the same pass.
func SweepOverlaps(lists []interval.List) [][]int32 {
	p := len(lists)
	w := make([][]int32, p)
	// Every row starts with room for two neighbours, the column-wise degree,
	// carved from one allocation; only a row that outgrows it reallocates.
	slab := make([]int32, 2*p)
	for i := range w {
		w[i] = slab[2*i : 2*i : 2*i+2]
	}
	active := make([]int32, 0, p) // lists opened and not yet seen closed
	endOf := make([]int64, p)     // end of each list's latest extent
	for m := newMerger(lists); m.left > 0; {
		e, id := m.next()
		open := active[:0]
		for _, j := range active {
			if endOf[j] <= e.Off { // closed; id's own previous extent always has
				continue
			}
			// Rows are symmetric, so a pair absent from id's row is new to both.
			if at, found := slices.BinarySearch(w[id], j); !found {
				w[id] = slices.Insert(w[id], at, j)
				at, _ = slices.BinarySearch(w[j], int32(id))
				w[j] = slices.Insert(w[j], at, int32(id))
			}
			open = append(open, j)
		}
		active = append(open, int32(id))
		endOf[id] = e.End()
	}
	return w
}

// SweepSpans computes the conservative span-overlap graph — two spans that
// intersect count as overlapping even if the underlying non-contiguous
// views interleave without sharing bytes. It runs the same sweep core as
// SweepOverlaps over one-extent lists, so span mode and exact mode cannot
// drift apart.
func SweepSpans(spans []interval.Extent) [][]int32 {
	lists := make([]interval.List, len(spans))
	for i, s := range spans {
		lists[i] = interval.List{s}
	}
	return SweepOverlaps(lists)
}

// Owned is one run of the ownership map: Rank writes the bytes of Extent.
type Owned struct {
	interval.Extent
	Rank int
}

// String renders the run as its extent and rank, "[off,end)=rank".
func (o Owned) String() string { return fmt.Sprintf("%v=%d", o.Extent, o.Rank) }

// winners is the highest-rank-wins rule of the paper's §3.3.2, the one
// implementation behind Winners and ClipAll: it partitions the union of the
// views into maximal runs over which one rank is the highest writer and
// emits them in file order. A rank's runs never touch (a higher rank owns
// what lies between them) and two neighbouring runs differ in rank.
func (m *merger) winners(emit func(run interval.Extent, rank int)) {
	endOf := make([]int64, len(m.lists)) // end of each rank's latest extent
	for r := range endOf {
		endOf[r] = math.MinInt64 // never opened: closed everywhere
	}
	top, from := -1, int64(0) // the highest open rank owns [from, …)
	// settle closes the top rank's extents ending at or before upto; the
	// next highest rank still open inherits the bytes.
	settle := func(upto int64) {
		for top >= 0 && endOf[top] <= upto {
			emit(interval.Extent{Off: from, Len: endOf[top] - from}, top)
			from = endOf[top]
			for top--; top >= 0 && endOf[top] <= from; top-- {
			}
		}
	}
	for m.left > 0 {
		e, id := m.next()
		settle(e.Off)
		endOf[id] = e.End()
		if id > top {
			if top >= 0 && e.Off > from {
				emit(interval.Extent{Off: from, Len: e.Off - from}, top)
			}
			top, from = id, e.Off
		}
	}
	settle(math.MaxInt64)
}

// EachWinner streams the runs of Winners to emit, without building the list.
func EachWinner(views []interval.List, emit func(run interval.Extent, rank int)) {
	newMerger(views).winners(emit)
}

// Winners computes the offset-sorted, coalesced map of who owns which bytes
// under the highest-rank-wins rule: every byte any view covers appears in
// exactly one run, owned by the highest rank whose view covers it.
func Winners(views []interval.List) []Owned {
	m := newMerger(views)
	out := make([]Owned, 0, m.left) // a hint: exact when no extent is split
	m.winners(func(run interval.Extent, rank int) { out = append(out, Owned{run, rank}) })
	return out
}

// ClipAll computes every rank's clipped view under the same rule — Winners
// grouped by rank: result[r] covers exactly the bytes of views[r] covered
// by no higher-ranked view, the all-ranks form of subtracting the union of
// higher views from each view in O(E log P) total, not O(P·E) per rank.
func ClipAll(views []interval.List) []interval.List {
	out := make([]interval.List, len(views))
	newMerger(views).winners(func(run interval.Extent, rank int) {
		if out[rank] == nil { // a hint: a view split by higher ranks keeps more pieces
			out[rank] = make(interval.List, 0, len(views[rank]))
		}
		out[rank] = append(out[rank], run)
	})
	return out
}

// Atoms is a pull cursor over the atoms of extent lists: the pieces
// between neighbouring endpoints of the bytes two or more lists cover, over
// each of which the covering set is constant, in file order. It holds O(P)
// state, whatever the number of extents.
type Atoms struct {
	m      *merger
	active []int   // the lists open at pos, ascending
	endOf  []int64 // end of each list's latest extent
	pos    int64   // every atom before pos has been yielded
}

// NewAtoms returns a cursor over the atoms of lists.
func NewAtoms(lists []interval.List) *Atoms {
	return &Atoms{m: newMerger(lists), active: make([]int, 0, len(lists)), endOf: make([]int64, len(lists))}
}

// Next returns the next atom and the positions of the lists that cover
// it, ascending, or false once the atoms are exhausted. The slice is
// reused by the next call: a caller that keeps it copies it.
func (a *Atoms) Next() (atom interval.Extent, covering []int, ok bool) {
	for {
		a.active = slices.DeleteFunc(a.active, func(j int) bool { return a.endOf[j] <= a.pos })
		upto := int64(math.MaxInt64) // where the next extent opens
		if a.m.left > 0 {
			upto = a.m.head[a.m.tree[1]]
		}
		if len(a.active) > 0 && a.pos < upto {
			cut := upto
			for _, j := range a.active {
				cut = min(cut, a.endOf[j])
			}
			atom, a.pos = interval.Extent{Off: a.pos, Len: cut - a.pos}, cut
			if len(a.active) >= 2 {
				return atom, a.active, true
			}
			continue
		}
		if a.m.left == 0 {
			return interval.Extent{}, nil, false
		}
		e, id := a.m.next()
		// A normalized list has one extent open at a time, so id is absent.
		at, _ := slices.BinarySearch(a.active, id)
		a.active = slices.Insert(a.active, at, id)
		a.endOf[id], a.pos = e.End(), e.Off
	}
}
