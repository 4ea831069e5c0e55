package index

// Property tests pinning the index structures to brute-force oracles over
// randomized workloads, in the style of internal/interval/quick_test.go.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

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

// The sweeps take canonical lists and do not check them; the tests call
// them through these wrappers, which do.

// mustCanonical fails t unless every list is canonical, and returns lists.
func mustCanonical(t testing.TB, lists []interval.List) []interval.List {
	t.Helper()
	for i, l := range lists {
		if !l.IsCanonical() {
			t.Fatalf("list %d is not canonical, as the sweeps require: %v", i, l)
		}
	}
	return lists
}

func sweepOverlaps(t testing.TB, lists []interval.List) [][]int32 {
	t.Helper()
	return SweepOverlaps(mustCanonical(t, lists))
}

func clipAll(t testing.TB, views []interval.List) []interval.List {
	t.Helper()
	return ClipAll(mustCanonical(t, views))
}

func eachWinner(t testing.TB, lists []interval.List, emit func(run interval.Extent, id int)) {
	t.Helper()
	EachWinner(mustCanonical(t, lists), emit)
}

func sweep(t testing.TB, records []Record, views []interval.List, visit func(p *Piece)) {
	t.Helper()
	Sweep(records, mustCanonical(t, views), visit)
}

// canonical returns each list normalized, as the views' producers build
// them.
func canonical(lists []interval.List) []interval.List {
	out := make([]interval.List, len(lists))
	for i, l := range lists {
		out[i] = l.Normalize()
	}
	return out
}

// shapedViews draws p lists from the shapes the streamed merge and the lazy
// closes have to get right: empty lists, one-extent lists, exact copies of
// an earlier list (every offset ties across lists), chains of touching and
// empty extents [a,x) [x,x) [x,b) (a close and an open at the same
// coordinate across lists once normalized), already-canonical lists, and
// unsorted overlapping ones, each then made canonical. Coordinates are
// small so ties are the common case.
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
				l := int64(r.Intn(9))
				views[i] = append(views[i], interval.Extent{Off: off, Len: l})
				off += l
			}
		case shape == 4:
			views[i] = randList(r).Normalize()
		default:
			views[i] = randList(r)
		}
	}
	return canonical(views)
}

// coverage is the per-byte model the sweep drivers are pinned to: for every
// offset below the returned length, the ascending ids of the lists covering
// it. It shares nothing with the merger — no order, no open set.
func coverage(views []interval.List) [][]int {
	var size int64
	for _, v := range views {
		size = max(size, v.Span().End())
	}
	cover := make([][]int, size)
	for id, v := range views {
		for _, e := range v.Normalize() {
			for o := e.Off; o < e.End(); o++ {
				cover[o] = append(cover[o], id)
			}
		}
	}
	return cover
}

// randRecords draws n write records: ascending runs that touch, leave gaps
// or are empty, some naming a writer per run, on the coordinates of
// shapedViews.
func randRecords(r *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		rec := &recs[i]
		rec.Writer = r.Intn(9)
		named := r.Intn(2) == 0
		for off, k := int64(r.Intn(60)), r.Intn(6); k > 0; k-- {
			e := interval.Extent{Off: off, Len: int64(r.Intn(12))}
			rec.Ext = append(rec.Ext, e)
			if named {
				rec.Writers = append(rec.Writers, r.Intn(9))
			}
			off = e.End() + int64(r.Intn(3))*int64(r.Intn(8))
		}
	}
	return recs
}

// TestQuickMergerMatchesSort pins the loser tree's draw order to a plain
// sort of the non-empty extents by (offset, list id), for list counts that
// leave leaves at two depths of the tree: normalized views, and write
// records merged as they stand, whose runs touch and may be empty. Each
// drawn extent's index is its place in its list.
func TestQuickMergerMatchesSort(t *testing.T) {
	type drawn struct {
		e     interval.Extent
		id, k int
	}
	r := rand.New(rand.NewSource(6))
	for round := 0; round < 400; round++ {
		lists := shapedViews(r, r.Intn(34))
		for _, rec := range randRecords(r, r.Intn(8)) {
			lists = append(lists, rec.Ext)
		}
		var want []drawn
		for i, l := range lists {
			for k, e := range l {
				if !e.Empty() {
					want = append(want, drawn{e, i, k})
				}
			}
		}
		slices.SortFunc(want, func(a, b drawn) int {
			return cmp.Or(cmp.Compare(a.e.Off, b.e.Off), cmp.Compare(a.id, b.id))
		})
		var got []drawn
		for m := newMerger(lists); !m.done(); {
			e, id, k := m.next()
			got = append(got, drawn{e, id, k})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: merged order\n%v\nwant sorted\n%v\nlists=%v", round, got, want, lists)
		}
	}
}

// TestQuickSweepShapesMatchOracles checks the matrix and the clips against
// their list-algebra oracles on the adversarial shapes, P = 1..33.
func TestQuickSweepShapesMatchOracles(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		views := shapedViews(r, 1+r.Intn(33))
		w := sweepOverlaps(t, views)
		clips := clipAll(t, views)
		for i := range views {
			for j := range views {
				if want := i != j && views[i].Overlaps(views[j]); linked(w, i, j) != want {
					t.Fatalf("round %d: W[%d][%d] = %v, want %v\nviews=%v", round, i, j, !want, want, views)
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

// Winners is EachWinner's runs collected into the offset-sorted, coalesced
// map of who owns which bytes: every byte any view covers appears in
// exactly one run, owned by the highest rank whose view covers it.
func Winners(t testing.TB, views []interval.List) []Owned {
	t.Helper()
	var out []Owned
	eachWinner(t, views, func(run interval.Extent, rank int) { out = append(out, Owned{run, rank}) })
	return out
}

// TestWinnersMatchesByteModel pins the ownership map to the per-byte
// highest-rank array: runs ascend, cover exactly the written bytes, name the
// highest covering rank and are maximal (neighbours that touch differ in
// rank); and ClipAll is the same map grouped by rank.
func TestWinnersMatchesByteModel(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for round := 0; round < 400; round++ {
		views := shapedViews(r, 1+r.Intn(33))
		cover := coverage(views)
		owners := Winners(t, views)
		owner := make([]int, len(cover)) // rank+1 of the run holding each byte, 0 = none
		grouped := make([]interval.List, len(views))
		for k, o := range owners {
			if prev := k - 1; o.Empty() || k > 0 && (owners[prev].End() > o.Off || owners[prev].End() == o.Off && owners[prev].Rank == o.Rank) {
				t.Fatalf("round %d: run %d of %v is empty, out of order or not maximal\nviews=%v", round, k, owners, views)
			}
			for b := o.Off; b < o.End(); b++ {
				owner[b] = o.Rank + 1
			}
			grouped[o.Rank] = append(grouped[o.Rank], o.Extent)
		}
		for b, c := range cover {
			if want := len(c); want > 0 && owner[b] != c[want-1]+1 || want == 0 && owner[b] != 0 {
				t.Fatalf("round %d: byte %d goes to rank %d, covered by %v\nowners=%v\nviews=%v", round, b, owner[b]-1, c, owners, views)
			}
		}
		if clips := clipAll(t, views); !slices.EqualFunc(clips, grouped, slices.Equal[interval.List]) {
			t.Fatalf("round %d: ClipAll = %v, Winners grouped by rank = %v", round, clips, grouped)
		}
	}
}

// TestSweepAtomsMatchesByteModel pins Sweep to the per-byte model: each byte's
// owner — the writer of the last record holding it, which may be a view
// lent as it stands — and the views covering it. Pieces ascend without overlapping, cover exactly the bytes
// a record or a view holds, carry each of their bytes' owner and views,
// and are cut where a view opens or closes; the atoms they make — runs of
// two or more views between cuts — are the maximal runs of bytes one set
// of two or more views covers.
func TestSweepAtomsMatchesByteModel(t *testing.T) {
	type atom struct {
		e       interval.Extent
		writers []int
	}
	r := rand.New(rand.NewSource(9))
	for round := 0; round < 600; round++ {
		views := shapedViews(r, r.Intn(34))
		recs := randRecords(r, r.Intn(10))
		for v, l := range views { // some ranks lend their own view, as it stands, once or twice
			if r.Intn(3) == 0 {
				recs = slices.Insert(recs, r.Intn(len(recs)+1), Record{Ext: l, Writer: v})
			}
		}
		cover := coverage(views)
		size := len(cover) + 1 // past every extent's end
		for _, rec := range recs {
			size = max(size, int(rec.Ext.Span().End())+1)
		}
		owner := make([]int, size)
		for i := range owner {
			owner[i] = -1
		}
		for _, rec := range recs {
			for k, e := range rec.Ext {
				for o := e.Off; o < e.End(); o++ {
					owner[o] = rec.writer(k)
				}
			}
		}
		at := func(o int64) (int, []int) {
			switch {
			case o < 0:
				return -1, nil
			case o >= int64(len(cover)):
				return owner[o], nil
			}
			return owner[o], cover[o]
		}
		var want []atom
		for o, c := range cover {
			if len(c) < 2 {
				continue
			}
			if n := len(want); n > 0 && want[n-1].e.End() == int64(o) && slices.Equal(want[n-1].writers, c) {
				want[n-1].e.Len++
			} else {
				want = append(want, atom{interval.Extent{Off: int64(o), Len: 1}, c})
			}
		}
		var got []atom
		next := int64(0) // the first byte no piece has reached
		where := func() string { return fmt.Sprintf("round %d: views %v\nrecords %+v", round, views, recs) }
		sweep(t, recs, views, func(p *Piece) {
			views := slices.Sorted(slices.Values(p.Views))
			if p.Empty() || p.Off < next {
				t.Fatalf("%s\npiece %+v is empty or starts before %d", where(), p, next)
			}
			for o := next; o < p.Off; o++ {
				if w, c := at(o); w >= 0 || len(c) > 0 {
					t.Fatalf("%s\nbyte %d, owned by %d and covered by %v, is in no piece", where(), o, w, c)
				}
			}
			for o := p.Off; o < p.End(); o++ {
				w, c := at(o)
				if w != p.Owner || !slices.Equal(c, slicesInt(views)) || w < 0 && len(c) == 0 {
					t.Fatalf("%s\npiece %+v: byte %d owned by %d, covered by %v", where(), p, o, w, c)
				}
			}
			if _, before := at(p.Off - 1); p.Cut != !slices.Equal(before, slicesInt(views)) {
				t.Fatalf("%s\npiece %+v: cut %v, but the views before it are %v", where(), p, p.Cut, before)
			}
			switch n := len(got); {
			case len(views) < 2:
			case !p.Cut && n > 0 && got[n-1].e.End() == p.Off:
				got[n-1].e.Len += p.Len
			default:
				got = append(got, atom{p.Extent, slicesInt(views)})
			}
			next = p.End()
		})
		for o := next; o < int64(len(owner)); o++ {
			if w, c := at(o); w >= 0 || len(c) > 0 {
				t.Fatalf("%s\nbyte %d, owned by %d and covered by %v, is in no piece", where(), o, w, c)
			}
		}
		if !slices.EqualFunc(got, want, func(a, b atom) bool { return a.e == b.e && slices.Equal(a.writers, b.writers) }) {
			t.Fatalf("%s\natoms\n%v\nwant\n%v", where(), got, want)
		}
	}
}

// slicesInt widens view ids to ints.
func slicesInt(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// allocated reports the bytes f allocates, after one warm-up call: the
// least of three measurements, since TotalAlloc also counts whatever the
// rest of the process allocates meanwhile.
func allocated(f func()) uint64 {
	f()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSweepScratchIsIndependentOfExtentCount holds the sweep's memory: with
// P fixed, 64 times the extents cost SweepOverlaps and Sweep no more
// bytes, EachWinner none, and ClipAll only its output.
func TestSweepScratchIsIndependentOfExtentCount(t *testing.T) {
	const p = 16
	var sink any
	for _, d := range []struct {
		name   string
		run    func(views []interval.List)
		perRun uintptr // output bytes per run of the ownership map: not scratch
	}{
		{"SweepOverlaps", func(v []interval.List) { sink = SweepOverlaps(v) }, 0},
		{"Sweep", func(v []interval.List) {
			bytes := int64(0)
			Sweep(nil, v, func(p *Piece) { bytes += p.Len })
			sink = bytes
		}, 0},
		{"ClipAll", func(v []interval.List) { sink = ClipAll(v) }, unsafe.Sizeof(interval.Extent{})},
		{"EachWinner", func(v []interval.List) {
			bytes := int64(0)
			EachWinner(v, func(run interval.Extent, _ int) { bytes += run.Len })
			sink = bytes
		}, 0},
	} {
		var scratch [2]int64
		for i, extents := range []int{1 << 10, 1 << 16} {
			// One run per extent: each overlap goes to the right-hand neighbour.
			views := columnViews(p, extents/p, 64, 16)
			scratch[i] = int64(allocated(func() { d.run(views) })) - int64(extents)*int64(d.perRun)
		}
		t.Logf("%s: %d B beside its output at E=1k, %d B at E=64k", d.name, scratch[0], scratch[1])
		if scratch[1]-scratch[0] >= 1024 || scratch[0] > 64*p+4096 {
			t.Errorf("%s allocates %d B beside its output at E=1k and %d B at E=64k: not O(P) scratch",
				d.name, scratch[0], scratch[1])
		}
	}
	_ = sink
}

// TestQuickSweepMatchesPairwise checks the sweep-line overlap matrix against
// the O(P²) pairwise-merge oracle on random view sets.
func TestQuickSweepMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		p := 1 + r.Intn(8)
		views := make([]interval.List, p)
		for i := range views {
			views[i] = randList(r).Normalize()
		}
		got := sweepOverlaps(t, views)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				want := i != j && views[i].Overlaps(views[j])
				if linked(got, i, j) != want {
					t.Fatalf("round %d: W[%d][%d] = %v, want %v\nviews=%v",
						round, i, j, !want, want, views)
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
				if linked(got, i, j) != want {
					t.Fatalf("W[%d][%d] = %v, want %v for %v", i, j, !want, want, spans)
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
			views[i] = randList(r).Normalize()
		}
		got := clipAll(t, views)
		for rank := 0; rank < p; rank++ {
			var higher interval.List
			for j := rank + 1; j < p; j++ {
				higher = append(higher, views[j]...)
			}
			want := views[rank].Subtract(higher)
			if !slices.Equal(got[rank], want) {
				t.Fatalf("rank %d clip = %v, want %v\nviews=%v", rank, got[rank], want, views)
			}
			if !got[rank].IsCanonical() {
				t.Fatalf("rank %d clip not canonical: %v", rank, got[rank])
			}
		}
	}
}
