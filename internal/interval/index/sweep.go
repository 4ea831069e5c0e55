package index

import (
	"slices"

	"atomio/internal/interval"
)

// event is one endpoint of the sweep: an extent of list id opening (start)
// or closing at coordinate at. Extents are half-open, so a close at x
// happens before an open at x.
type event struct {
	at    int64
	start bool
	id    int32
}

// before is the schedule order: by coordinate, closes before opens ([a,x)
// and [x,b) are disjoint). Ties beyond that go to the lower list id, which
// mergeEvents gets from merging runs in id order, left run first.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return !e.start && o.start
}

// events flattens the normalized lists into the sorted endpoint schedule
// every sweep driver walks. Normalization guarantees each list's extents are
// disjoint, non-touching and non-empty, so a list is "active" over exactly
// the bytes it covers, never nests with itself, and — the point here — its
// own endpoints off₀ < end₀ < off₁ < end₁ < … are already in schedule
// order. The schedule is therefore a P-way merge of P sorted runs, not a
// sort: ⌈log₂ P⌉ linear passes instead of O(E log E) comparisons.
func events(lists []interval.List) []event {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	evs := make([]event, 0, 2*total)
	bounds := make([]int, 1, len(lists)+1) // run i is evs[bounds[i]:bounds[i+1]]
	for i, l := range lists {
		for _, e := range l.Normalize() {
			evs = append(evs, event{at: e.Off, start: true, id: int32(i)},
				event{at: e.End(), start: false, id: int32(i)})
		}
		bounds = append(bounds, len(evs))
	}
	return mergeEvents(evs, bounds)
}

// mergeEvents merges the sorted runs laid end to end in evs into one sorted
// schedule by bottom-up pairwise merging between evs and one scratch slice
// of equal size. Each pass merges neighbouring runs and prefers the left
// one on ties, so equal (at, start) events stay in list-id order.
func mergeEvents(evs []event, bounds []int) []event {
	src, dst := evs, make([]event, len(evs))
	for len(bounds) > 2 {
		merged := make([]int, 1, len(bounds)/2+2)
		for r := 0; r+1 < len(bounds); r += 2 {
			lo, mid, hi := bounds[r], bounds[r+1], bounds[r+1]
			if r+2 < len(bounds) {
				hi = bounds[r+2]
			}
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:hi]
			i, j, k := 0, 0, 0
			for i < len(a) && j < len(b) {
				if b[j].before(&a[i]) {
					out[k] = b[j]
					j++
				} else {
					out[k] = a[i]
					i++
				}
				k++
			}
			k += copy(out[k:], a[i:])
			copy(out[k:], b[j:])
			merged = append(merged, hi)
		}
		bounds = merged
		src, dst = dst, src
	}
	return src
}

// SweepOverlaps computes the P×P boolean overlap matrix of the given extent
// lists — W[i][j] reports whether lists i and j share at least one byte —
// in one walk of the endpoint schedule: O(E log P + marked pairs) for E
// total extents, instead of the O(P²·E) of pairwise list merges. The
// diagonal is false by construction, matching the paper's Figure 5 matrix.
//
// When an extent opens, every list still open overlaps it. Normalized lists
// keep at most one extent open at a time, so the active set is a plain
// position-indexed slice.
func SweepOverlaps(lists []interval.List) [][]bool {
	p := len(lists)
	w := make([][]bool, p)
	for i := range w {
		w[i] = make([]bool, p)
	}
	active := make([]int32, 0, p)
	posOf := make([]int32, p) // id -> position in active; meaningful only while open
	for _, ev := range events(lists) {
		if !ev.start {
			pos := posOf[ev.id]
			last := int32(len(active) - 1)
			active[pos] = active[last]
			posOf[active[pos]] = pos
			active = active[:last]
			continue
		}
		row := w[ev.id]
		for _, j := range active {
			row[j] = true
			w[j][ev.id] = true
		}
		posOf[ev.id] = int32(len(active))
		active = append(active, ev.id)
	}
	return w
}

// SweepSpans computes the conservative span-overlap matrix — two spans that
// intersect count as overlapping even if the underlying non-contiguous
// views interleave without sharing bytes. It runs the same sweep core as
// SweepOverlaps over one-extent lists, so span mode and exact mode cannot
// drift apart.
func SweepSpans(spans []interval.Extent) [][]bool {
	lists := make([]interval.List, len(spans))
	for i, s := range spans {
		lists[i] = interval.List{s}
	}
	return SweepOverlaps(lists)
}

// ClipAll computes every rank's clipped view under the highest-rank-wins
// rule of the paper's §3.3.2 in a single sweep: result[r] covers exactly
// the bytes of views[r] covered by no higher-ranked view (each byte goes to
// the highest rank writing it). It is the all-ranks form of subtracting the
// union of higher views from each view, in O(E log P) total instead of
// O(P·E) per rank.
func ClipAll(views []interval.List) []interval.List {
	p := len(views)
	out := make([]interval.List, p)
	if p == 0 {
		return out
	}
	active := make([]bool, p)
	top := -1 // highest active rank, -1 when none
	evs := events(views)
	prev := int64(0)
	for k := 0; k < len(evs); {
		at := evs[k].at
		// Emit the piece since the previous coordinate to the top rank.
		if top >= 0 && at > prev {
			l := out[top]
			if l == nil { // a hint: a view split by higher ranks keeps more pieces
				l = make(interval.List, 0, len(views[top]))
			}
			if n := len(l); n > 0 && l[n-1].End() == prev {
				l[n-1].Len += at - prev
			} else {
				l = append(l, interval.Extent{Off: prev, Len: at - prev})
			}
			out[top] = l
		}
		// Apply every event at this coordinate, then re-settle the top.
		for ; k < len(evs) && evs[k].at == at; k++ {
			ev := evs[k]
			active[ev.id] = ev.start
			if ev.start && int(ev.id) > top {
				top = int(ev.id)
			}
		}
		for top >= 0 && !active[top] {
			top--
		}
		prev = at
	}
	return out
}

// SweepAtoms partitions the bytes that two or more of the lists cover into
// atoms — the pieces between neighbouring endpoints of the schedule, over
// each of which the covering set is constant — and visits them in file
// order with the covering lists' positions in ascending order. The slice is
// reused from one call to the next: a visitor that keeps it copies it. The
// visitor returns false to stop early; SweepAtoms reports whether the walk
// ran to completion.
func SweepAtoms(lists []interval.List, visit func(atom interval.Extent, covering []int) bool) bool {
	var active []int // ascending
	evs := events(lists)
	prev := int64(0)
	for k := 0; k < len(evs); {
		at := evs[k].at
		if len(active) >= 2 && at > prev {
			if !visit(interval.Extent{Off: prev, Len: at - prev}, active) {
				return false
			}
		}
		for ; k < len(evs) && evs[k].at == at; k++ {
			id := int(evs[k].id)
			// A normalized list has one extent open at a time, so id is
			// absent at its open and present at its close.
			pos, _ := slices.BinarySearch(active, id)
			if evs[k].start {
				active = slices.Insert(active, pos, id)
			} else {
				active = slices.Delete(active, pos, pos+1)
			}
		}
		prev = at
	}
	return true
}
