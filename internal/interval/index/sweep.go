package index

import (
	"fmt"
	"math"
	"slices"

	"atomio/internal/interval"
)

// merger streams the extents of P lists in (Off, list id) order: a P-way
// merge run as a loser tree. Every list ascends — each extent opens at or
// after the previous one's end, and empty ones are skipped — so a list has
// at most one extent open at a time. A canonical list's next extent opens
// strictly after the previous one closed; a write record's may touch it.
// Each list has a cursor, so no list is re-sliced, and a drawn extent comes
// with its index in its list.
//
// Node n ≥ 1 of the tree keeps the loser of the match played there — the
// losing list's head extent itself, so a match reads no list — and node 0
// the overall winner; leaf i, list i's head, is node P+i. Drawing replays
// the drawn list's matches on the way to the root: one comparison and one
// load per level.
//
// No close is ever scheduled. Each sweep driver keeps the end of every
// list's latest extent and settles closes lazily, when the next extent
// opens: an extent whose end ≤ the opening offset closes first (extents are
// half-open: [a,x) and [x,b) are disjoint). A sweep therefore holds O(P)
// state, whatever the number of extents.
type merger struct {
	cur  []cursor // each list, and where it is
	node []entry  // node 0: the winner; node n ≥ 1: the loser of the match at n
}

// cursor is a list and the index of its next extent.
type cursor struct {
	ext interval.List
	at  int
}

// entry is a list's head in the tree: its next extent, at offset
// math.MaxInt64 once the list is exhausted, and the list's id.
type entry struct {
	interval.Extent
	id int
}

// beats orders heads by offset, ties to the lower list id.
func (a entry) beats(b entry) bool { return a.Off < b.Off || a.Off == b.Off && a.id < b.id }

// newMerger merges lists as they stand: each must ascend.
func newMerger(lists []interval.List) merger {
	m := merger{cur: make([]cursor, len(lists)), node: make([]entry, max(len(lists), 1))}
	for i, l := range lists {
		m.cur[i].ext = l
	}
	m.node[0] = entry{Extent: interval.Extent{Off: math.MaxInt64}}
	if len(lists) > 0 {
		m.node[0] = m.play(1)
	}
	return m
}

// play builds the tree below node n, keeping each match's loser, and returns
// its winner.
func (m *merger) play(n int) entry {
	if p := len(m.cur); n >= p {
		return m.head(n-p, 0)
	}
	a, b := m.play(2*n), m.play(2*n+1)
	if b.beats(a) {
		a, b = b, a
	}
	m.node[n] = b
	return a
}

// head moves list id's cursor to its first nonempty extent from k and
// returns the list's head.
func (m *merger) head(id, k int) entry {
	c := &m.cur[id]
	for ; k < len(c.ext); k++ {
		if e := c.ext[k]; e.Len > 0 {
			c.at = k
			return entry{e, id}
		}
	}
	c.at = k
	return entry{interval.Extent{Off: math.MaxInt64}, id}
}

// done reports whether every extent has been drawn.
func (m *merger) done() bool { return m.node[0].Off == math.MaxInt64 }

// next draws the next extent, the id of its list and its index there; call
// it only while !done().
func (m *merger) next() (interval.Extent, int, int) {
	e, id := m.node[0].Extent, m.node[0].id
	k := m.cur[id].at
	w := m.head(id, k+1)
	for n := (len(m.cur) + id) / 2; n >= 1; n /= 2 {
		if m.node[n].beats(w) {
			m.node[n], w = w, m.node[n]
		}
	}
	m.node[0] = w
	return e, id, k
}

// SweepOverlaps computes the overlap graph of the given extent lists as
// adjacency rows: row i lists, ascending and once each, the lists j ≠ i that
// share at least one byte with list i — the columns of the ones in row i of
// the paper's Figure 5 matrix W. One streamed merge does it, in O(E log P +
// found pairs · log degree) for E total extents instead of the O(P²·E) of
// pairwise list merges, and in O(P + edges) memory instead of P² cells.
// When an extent opens, every list still open overlaps it; the lists that
// closed since the last open are dropped in the same pass. Every list must
// be canonical, as its producers build it; the sweep does not check.
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
	for m := newMerger(lists); !m.done(); {
		e, id, _ := m.next()
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
// drift apart. An empty span overlaps nothing.
func SweepSpans(spans []interval.Extent) [][]int32 {
	lists := make([]interval.List, len(spans))
	for i, s := range spans {
		if !s.Empty() {
			lists[i] = interval.List{s}
		}
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

// EachWinner streams the highest-rank-wins rule of the paper's §3.3.2, the
// one implementation behind ClipAll and the two-phase merge: it partitions
// the union of the lists into maximal runs over which one list — the
// highest-numbered covering the bytes — is the top writer, and emits each
// run and its list's id in file order. A list's runs never touch (a higher
// list owns what lies between them) and two neighbouring runs differ in
// id. It holds O(len(lists)) state and builds no output of its own. Every
// list must be canonical, as its producers build it; EachWinner does not
// check.
func EachWinner(lists []interval.List, emit func(run interval.Extent, id int)) {
	m := newMerger(lists)
	endOf := make([]int64, len(m.cur)) // end of each list's latest extent
	for r := range endOf {
		endOf[r] = math.MinInt64 // never opened: closed everywhere
	}
	top, from := -1, int64(0) // the highest open list owns [from, …)
	// settle closes the top list's extents ending at or before upto; the
	// next highest list still open inherits the bytes.
	settle := func(upto int64) {
		for top >= 0 && endOf[top] <= upto {
			emit(interval.Extent{Off: from, Len: endOf[top] - from}, top)
			from = endOf[top]
			for top--; top >= 0 && endOf[top] <= from; top-- {
			}
		}
	}
	for !m.done() {
		e, id, _ := m.next()
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

// ClipAll computes every rank's clipped view under the same rule —
// EachWinner's runs grouped by rank: result[r] covers exactly the bytes of
// views[r] covered by no higher-ranked view, the all-ranks form of
// subtracting the union of higher views from each view in O(E log P) total,
// not O(P·E) per rank. The views must be canonical, as EachWinner takes
// them, and so is every clip.
func ClipAll(views []interval.List) []interval.List {
	out := make([]interval.List, len(views))
	EachWinner(views, func(run interval.Extent, rank int) {
		if out[rank] == nil { // a hint: a view split by higher ranks keeps more pieces
			out[rank] = make(interval.List, 0, len(views[rank]))
		}
		out[rank] = append(out[rank], run)
	})
	return out
}

// Record is one write call's runs in ascending file order — neighbours may
// touch, and empty runs are skipped — and whose data each run is:
// Writers[k] for run k, or Writer for every run when Writers is nil. In a
// log of records, the later of two records holding a byte owns it.
type Record struct {
	Ext     interval.List
	Writers []int
	Writer  int
}

// writer returns the rank whose data run k is.
func (r *Record) writer(k int) int {
	if r.Writers == nil {
		return r.Writer
	}
	return r.Writers[k]
}

// Piece is one step of Sweep: a run of bytes over which the owner and the
// covering views stay the same.
type Piece struct {
	interval.Extent
	// Owner is the rank whose data the latest record holding the bytes
	// carries, -1 when no record holds them.
	Owner int
	// Views are the ids of the views covering the bytes, in no order. The
	// slice is the sweep's: the next piece reuses it.
	Views []int32
	// Cut reports that a view opens or closes at the piece's start, so an
	// atom — a run between neighbouring view endpoints — starts there.
	Cut bool
}

// Sweep visits, in file order, the pieces of the bytes a log of write
// records or some views cover. It cuts wherever an extent opens, where the
// owning run ends and where a view ends, so neighbouring pieces may share
// owner and views. One merge draws the records' runs, each list as it
// stands — the cursor of a drawn run indexes its writer — and the views'
// extents: the owner is the writer of the latest open record's run, the
// views the ones open. Every view must be canonical, as its producers build
// it; Sweep does not check. A record of its writer's own view, lent as it
// stands, opens and closes that view too: the merge draws the list once.
// It holds O(R + V) state, whatever the number of extents.
func Sweep(records []Record, views []interval.List, visit func(p *Piece)) {
	nr := len(records)
	lists := make([]interval.List, nr+len(views))
	opens := make([]int32, len(lists)) // the view each list's extents open, -1 for none
	for i := range records {
		lists[i], opens[i] = records[i].Ext, -1
	}
	for v, l := range views {
		lists[nr+v], opens[nr+v] = l, int32(v)
	}
	for i := range records {
		r, v := &records[i], records[i].Writer
		if r.Writers == nil && v >= 0 && v < len(views) && opens[nr+v] >= 0 &&
			len(r.Ext) > 0 && len(r.Ext) == len(lists[nr+v]) && &r.Ext[0] == &lists[nr+v][0] {
			opens[i], opens[nr+v] = int32(v), -1
		}
	}
	n := nr // the views no record opens follow the records
	for id := nr; id < len(lists); id++ {
		if opens[id] >= 0 {
			lists[n], opens[n], n = lists[id], opens[id], n+1
		}
	}
	m := newMerger(lists[:n])
	endOf := make([]int64, nr+len(views)) // end of each record's latest run, then of each view's latest extent
	for i := range endOf {
		endOf[i] = math.MinInt64 // never opened: closed everywhere
	}
	run := make([]int, nr) // each record's latest run
	top := -1              // the latest record open at pos
	p := Piece{Views: make([]int32, 0, len(views))}
	for pos := m.node[0].Off; pos != math.MaxInt64; {
		p.Cut = false
		for m.node[0].Off == pos {
			e, id, k := m.next()
			if id < nr {
				endOf[id], run[id], top = e.End(), k, max(top, id)
			}
			if v := opens[id]; v >= 0 {
				endOf[nr+int(v)], p.Views, p.Cut = e.End(), append(p.Views, v), true
			}
		}
		for top >= 0 && endOf[top] <= pos {
			top--
		}
		next, open := m.node[0].Off, 0
		for _, v := range p.Views {
			if end := endOf[nr+int(v)]; end > pos {
				p.Views[open], open, next = v, open+1, min(next, end)
			} else {
				p.Cut = true
			}
		}
		p.Views = p.Views[:open]
		if top >= 0 {
			next, p.Owner = min(next, endOf[top]), records[top].writer(run[top])
		} else {
			p.Owner = -1
		}
		if top >= 0 || open > 0 {
			p.Extent = interval.Extent{Off: pos, Len: next - pos}
			visit(&p)
		}
		pos = next
	}
}
