package index

// Property tests pinning the index structures to brute-force oracles over
// randomized workloads, in the style of internal/interval/quick_test.go.

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"atomio/internal/interval"
)

func randExtent(r *rand.Rand) interval.Extent {
	return interval.Extent{Off: int64(r.Intn(300)), Len: int64(r.Intn(30))}
}

func randList(r *rand.Rand) interval.List {
	n := r.Intn(12)
	l := make(interval.List, 0, n)
	for i := 0; i < n; i++ {
		l = append(l, randExtent(r))
	}
	return l
}

// TestQuickIndexMatchesLinearScan drives an Index and a plain slice through
// the same random insert/delete sequence and checks every Overlapping query
// against the linear scan, including visit order.
func TestQuickIndexMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type entry struct {
		e interval.Extent
		h Handle
		v int
	}
	for round := 0; round < 50; round++ {
		var ix Index[int]
		var mirror []entry
		for op := 0; op < 200; op++ {
			switch {
			case len(mirror) > 0 && r.Intn(3) == 0:
				k := r.Intn(len(mirror))
				en := mirror[k]
				if _, ok := ix.Delete(en.e, en.h); !ok {
					t.Fatalf("delete of live entry %v failed", en)
				}
				mirror = append(mirror[:k], mirror[k+1:]...)
			default:
				e := randExtent(r)
				h := ix.Insert(e, op)
				mirror = append(mirror, entry{e, h, op})
			}
			if ix.Len() != len(mirror) {
				t.Fatalf("Len = %d, mirror %d", ix.Len(), len(mirror))
			}
			q := randExtent(r)
			var got []int
			ix.Overlapping(q, func(_ interval.Extent, _ Handle, v int) bool {
				got = append(got, v)
				return true
			})
			// Oracle: linear scan in (Off, Handle) order.
			var want []entry
			for _, en := range mirror {
				if en.e.Overlaps(q) {
					want = append(want, en)
				}
			}
			for i := 0; i < len(want); i++ {
				for j := i + 1; j < len(want); j++ {
					if want[j].e.Off < want[i].e.Off ||
						(want[j].e.Off == want[i].e.Off && want[j].h < want[i].h) {
						want[i], want[j] = want[j], want[i]
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("query %v: got %d hits, want %d", q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i].v {
					t.Fatalf("query %v: hit %d = %d, want %d", q, i, got[i], want[i].v)
				}
			}
		}
	}
}

// shapedViews draws p lists from the shapes the merge-based schedule has to
// get right: empty lists, one-extent lists, exact copies of an earlier list
// (every endpoint ties), chains of touching extents [a,x) [x,b) (a close
// and an open at the same coordinate, within a list before normalization
// and across lists after), already-canonical lists, and unsorted
// overlapping ones. Coordinates are small so ties are the common case.
func shapedViews(r *rand.Rand, p int) []interval.List {
	views := make([]interval.List, p)
	for i := range views {
		switch shape := r.Intn(6); {
		case shape == 0:
			// empty
		case shape == 1:
			views[i] = interval.List{{Off: int64(r.Intn(60)), Len: 1 + int64(r.Intn(20))}}
		case shape == 2 && i > 0:
			views[i] = views[r.Intn(i)].Clone()
		case shape == 3:
			off := int64(r.Intn(20))
			for k := r.Intn(6); k >= 0; k-- {
				l := 1 + int64(r.Intn(8))
				views[i] = append(views[i], interval.Extent{Off: off, Len: l})
				off += l
			}
		case shape == 4:
			views[i] = randList(r).Normalize()
		default:
			views[i] = randList(r)
		}
	}
	return views
}

// TestQuickEventsMergeMatchesSort pins the P-way merge that builds the
// endpoint schedule to a plain sort of the same events under the full key
// (coordinate, close before open, list id), for run counts that leave odd
// runs over at every merge level.
func TestQuickEventsMergeMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for round := 0; round < 400; round++ {
		views := shapedViews(r, r.Intn(20))
		var want []event
		for i, l := range views {
			for _, e := range l.Normalize() {
				want = append(want, event{at: e.Off, start: true, id: int32(i)},
					event{at: e.End(), start: false, id: int32(i)})
			}
		}
		slices.SortFunc(want, func(a, b event) int {
			switch {
			case a.before(&b):
				return -1
			case b.before(&a):
				return 1
			}
			return cmp.Compare(a.id, b.id)
		})
		if got := events(views); !slices.Equal(got, want) {
			t.Fatalf("round %d: merged schedule\n%v\nwant sorted\n%v\nviews=%v", round, got, want, views)
		}
	}
}

// TestQuickSweepShapesMatchOracles checks both sweep drivers against their
// brute-force oracles on the adversarial shapes.
func TestQuickSweepShapesMatchOracles(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		views := shapedViews(r, 1+r.Intn(17))
		w := SweepOverlaps(views)
		clips := ClipAll(views)
		for i := range views {
			for j := range views {
				if want := i != j && views[i].Overlaps(views[j]); w[i][j] != want {
					t.Fatalf("round %d: W[%d][%d] = %v, want %v\nviews=%v", round, i, j, w[i][j], want, views)
				}
			}
			var higher interval.List
			for _, v := range views[i+1:] {
				higher = append(higher, v...)
			}
			if want := views[i].Subtract(higher); !slices.Equal(clips[i], want) {
				t.Fatalf("round %d: clip[%d] = %v, want %v\nviews=%v", round, i, clips[i], want, views)
			}
		}
	}
}

// TestQuickSweepMatchesPairwise checks the sweep-line overlap matrix against
// the O(P²) pairwise-merge oracle on random view sets.
func TestQuickSweepMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		p := 1 + r.Intn(8)
		views := make([]interval.List, p)
		for i := range views {
			views[i] = randList(r)
		}
		got := SweepOverlaps(views)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				want := i != j && views[i].Overlaps(views[j])
				if got[i][j] != want {
					t.Fatalf("round %d: W[%d][%d] = %v, want %v\nviews=%v",
						round, i, j, got[i][j], want, views)
				}
			}
		}
	}
}

// TestQuickSweepSpansMatchesPairwise checks span mode against pairwise
// Extent.Overlaps, including empty spans.
func TestQuickSweepSpansMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 300; round++ {
		p := 1 + r.Intn(8)
		spans := make([]interval.Extent, p)
		for i := range spans {
			spans[i] = randExtent(r)
		}
		got := SweepSpans(spans)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				want := i != j && spans[i].Overlaps(spans[j])
				if got[i][j] != want {
					t.Fatalf("W[%d][%d] = %v, want %v for %v", i, j, got[i][j], want, spans)
				}
			}
		}
	}
}

// TestQuickClipAllMatchesSubtract checks the one-pass clip against the
// per-rank subtract-of-higher-union oracle.
func TestQuickClipAllMatchesSubtract(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for round := 0; round < 200; round++ {
		p := 1 + r.Intn(6)
		views := make([]interval.List, p)
		for i := range views {
			views[i] = randList(r)
		}
		got := ClipAll(views)
		for rank := 0; rank < p; rank++ {
			var higher interval.List
			for j := rank + 1; j < p; j++ {
				higher = append(higher, views[j]...)
			}
			want := views[rank].Subtract(higher)
			if !got[rank].Equal(want) {
				t.Fatalf("rank %d clip = %v, want %v\nviews=%v", rank, got[rank], want, views)
			}
			if !got[rank].IsCanonical() {
				t.Fatalf("rank %d clip not canonical: %v", rank, got[rank])
			}
		}
	}
}

// TestQuickSetMatchesListAlgebra drives a Set and an interval.List through
// the same adds, checking Add's newly-covered parts against Subtract and
// Visit/Covers against the accumulated union.
func TestQuickSetMatchesListAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 100; round++ {
		var s Set
		var mirror interval.List // canonical accumulated coverage
		for op := 0; op < 60; op++ {
			e := randExtent(r)
			wantNew := (interval.List{e}).Subtract(mirror)
			gotNew := interval.List(s.Add(e))
			if !gotNew.Equal(wantNew) {
				t.Fatalf("Add(%v) new parts = %v, want %v (set %v)", e, gotNew, wantNew, mirror)
			}
			mirror = mirror.Union(interval.List{e})
			if !s.Extents().Equal(mirror) {
				t.Fatalf("set extents = %v, want %v", s.Extents(), mirror)
			}
			if s.CoveredBytes() != mirror.TotalLen() {
				t.Fatalf("covered = %d, want %d", s.CoveredBytes(), mirror.TotalLen())
			}
			q := randExtent(r)
			var visited, coveredParts interval.List
			s.Visit(q, func(part interval.Extent, covered bool) bool {
				visited = append(visited, part)
				if covered {
					coveredParts = append(coveredParts, part)
				}
				return true
			})
			if q.Empty() {
				continue
			}
			if visited.TotalLen() != q.Len {
				t.Fatalf("Visit(%v) covered %d bytes, want %d", q, visited.TotalLen(), q.Len)
			}
			if !coveredParts.Equal(mirror.Intersect(interval.List{q})) {
				t.Fatalf("Visit(%v) covered parts = %v, want %v", q, coveredParts,
					mirror.Intersect(interval.List{q}))
			}
			if s.Covers(q) != mirror.Contains(interval.List{q}) {
				t.Fatalf("Covers(%v) = %v, want %v", q, s.Covers(q), !s.Covers(q))
			}
		}
	}
}
