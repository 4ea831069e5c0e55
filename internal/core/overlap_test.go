package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/workload"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

// columnWiseViews builds the file extent lists of a column-wise partition.
func columnWiseViews(t *testing.T, m, n, p, r int) []interval.List {
	t.Helper()
	views := make([]interval.List, p)
	for rank := 0; rank < p; rank++ {
		piece, err := workload.ColumnWise(m, n, p, r, rank)
		if err != nil {
			t.Fatal(err)
		}
		views[rank] = interval.List(piece.Filetype.Flatten())
	}
	return views
}

func TestBuildOverlapMatrixColumnWise(t *testing.T) {
	// Figure 6's W matrix for P=4 column-wise: tridiagonal.
	views := columnWiseViews(t, 8, 16, 4, 2)
	w := BuildOverlapMatrix(views)
	want := OverlapMatrix{{1}, {0, 2}, {1, 3}, {2}}
	if !slices.EqualFunc(w, want, slices.Equal[[]int32]) {
		t.Fatalf("W =\n%v\nwant tridiagonal rows %v", w, want)
	}
	if got := w.String(); got != "0 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 0" {
		t.Fatalf("W render = %q", got)
	}
}

// sparse converts a dense boolean matrix to W's rows.
func sparse(dense [][]bool) OverlapMatrix {
	w := make(OverlapMatrix, len(dense))
	for i, row := range dense {
		w[i] = []int32{}
		for j, v := range row {
			if v {
				w[i] = append(w[i], int32(j))
			}
		}
	}
	return w
}

// TestColoringMemoryIsLinearInP pins W and its coloring to O(P + edges)
// bytes. At P=16384 ranks that each overlap their right-hand neighbour, W
// is tridiagonal; building and coloring it allocate a few hundred bytes per
// rank, where the P×P matrix and a P-sized scratch per rank colored took
// 2·P² bytes (537 MB).
func TestColoringMemoryIsLinearInP(t *testing.T) {
	const p = 16384
	views := make([]interval.List, p)
	for r := range views {
		views[r] = interval.List{ext(int64(r)*64, 80)}
	}
	var colors []int
	var num int
	least := uint64(math.MaxUint64) // of three runs: TotalAlloc counts the whole process
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		colors, num = GreedyColor(BuildOverlapMatrix(views))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if num != 2 || colors[p-1] != (p-1)%2 {
		t.Fatalf("%d colors, rank %d has color %d: want the two-coloring by parity", num, p-1, colors[p-1])
	}
	if least > 256*p {
		t.Errorf("building and coloring W at P=%d allocated %d bytes, %d per rank: want O(P + edges), at most 256 per rank",
			p, least, least/p)
	}
}

// validColoring reports whether colors assigns different colors to every
// overlapping pair — the invariant the property tests pin down.
func validColoring(w OverlapMatrix, colors []int) bool {
	for i, row := range w {
		for _, j := range row {
			if colors[i] == colors[j] {
				return false
			}
		}
	}
	return true
}

func TestFigure6TwoColoring(t *testing.T) {
	// The paper's Figure 6: for column-wise partitioning two colors
	// suffice — even ranks write first, then odd ranks.
	views := columnWiseViews(t, 8, 32, 4, 2)
	w := BuildOverlapMatrix(views)
	colors, num := GreedyColor(w)
	if num != 2 {
		t.Fatalf("colors = %d, want 2", num)
	}
	for rank, c := range colors {
		if c != rank%2 {
			t.Fatalf("rank %d color %d, want parity %d", rank, c, rank%2)
		}
	}
	if !validColoring(w, colors) {
		t.Fatal("coloring invalid")
	}
}

func TestGreedyColoringAlgorithm(t *testing.T) {
	// Hand-checked instance: a triangle plus a pendant vertex.
	w := sparse([][]bool{
		{false, true, true, false},
		{true, false, true, false},
		{true, true, false, true},
		{false, false, true, false},
	})
	colors, num := GreedyColor(w)
	want := []int{0, 1, 2, 0}
	for i := range want {
		if colors[i] != want[i] {
			t.Fatalf("colors = %v, want %v", colors, want)
		}
	}
	if num != 3 {
		t.Fatalf("num = %d, want 3", num)
	}
}

func TestGreedyColoringNoOverlapsOneColor(t *testing.T) {
	w := BuildOverlapMatrix([]interval.List{{ext(0, 10)}, {ext(20, 10)}, {ext(40, 10)}})
	for i, row := range w {
		if len(row) != 0 {
			t.Fatalf("disjoint views reported overlapping: row %d = %v", i, row)
		}
	}
	colors, num := GreedyColor(w)
	if num != 1 {
		t.Fatalf("num = %d, want 1", num)
	}
	for _, c := range colors {
		if c != 0 {
			t.Fatalf("colors = %v", colors)
		}
	}
}

func TestGreedyColoringAllPairwiseOverlap(t *testing.T) {
	// All ranks share one byte: P colors needed (fully serialized).
	views := make([]interval.List, 5)
	for i := range views {
		views[i] = interval.List{ext(0, 1)}
	}
	_, num := GreedyColor(BuildOverlapMatrix(views))
	if num != 5 {
		t.Fatalf("num = %d, want 5", num)
	}
}

func TestQuickGreedyColoringAlwaysValid(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := int(pRaw%16) + 1
		dense := make([][]bool, p)
		for i := range dense {
			dense[i] = make([]bool, p)
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if r.Intn(3) == 0 {
					dense[i][j], dense[j][i] = true, true
				}
			}
		}
		w := sparse(dense)
		colors, num := GreedyColor(w)
		if !validColoring(w, colors) {
			return false
		}
		for _, c := range colors {
			if c < 0 || c >= num {
				return false
			}
		}
		// Greedy bound: at most max-degree+1 colors.
		maxDeg := 0
		for i := range w {
			maxDeg = max(maxDeg, len(w[i]))
		}
		return num <= maxDeg+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7ClippedViews(t *testing.T) {
	// §3.3.2/Figure 7: under rank ordering with column-wise partitioning,
	// each rank surrenders its rightmost R overlap columns to the next
	// rank; rank P-1 keeps everything.
	const m, n, p, r = 4, 16, 4, 2
	views := columnWiseViews(t, m, n, p, r)

	// Rank P-1 keeps its full view.
	lastClip := ClipForRank(views, p-1)
	if !slices.Equal(lastClip, views[p-1]) {
		t.Fatalf("highest rank lost bytes: %v vs %v", lastClip, views[p-1])
	}

	for rank := 0; rank < p-1; rank++ {
		clip := ClipForRank(views, rank)
		// The clipped view must not intersect any higher rank's view...
		for j := rank + 1; j < p; j++ {
			if clip.Overlaps(views[j]) {
				t.Fatalf("rank %d clip still overlaps rank %d", rank, j)
			}
		}
		// ...and must retain everything not claimed by higher ranks.
		var higher interval.List
		for j := rank + 1; j < p; j++ {
			higher = append(higher, views[j]...)
		}
		if !slices.Equal(clip, views[rank].Subtract(higher)) {
			t.Fatalf("rank %d clip wrong", rank)
		}
		// Column-wise: what is lost is exactly R columns x M rows.
		lost := views[rank].Normalize().TotalLen() - clip.TotalLen()
		if lost != int64(m*r) {
			t.Fatalf("rank %d surrendered %d bytes, want %d", rank, lost, m*r)
		}
	}

	// Clipped views tile the whole file exactly once.
	var union interval.List
	for rank := 0; rank < p; rank++ {
		union = union.Union(ClipForRank(views, rank))
	}
	if !slices.Equal(union, interval.List{ext(0, m*n)}) {
		t.Fatalf("clipped union = %v, want whole file", union)
	}
	var total int64
	for rank := 0; rank < p; rank++ {
		total += ClipForRank(views, rank).TotalLen()
	}
	if total != m*n {
		t.Fatalf("clipped total = %d, want %d (no double writes)", total, m*n)
	}

	// Total surrendered bytes = (P-1) * R * M (§3.3.2 overhead analysis):
	// what the views cover between them, less what the winners map keeps.
	var surrendered int64
	for _, v := range views {
		surrendered += v.TotalLen()
	}
	index.EachWinner(views, func(run interval.Extent, _ int) { surrendered -= run.Len })
	if surrendered != int64((p-1)*r*m) {
		t.Fatalf("surrendered = %d, want %d", surrendered, (p-1)*r*m)
	}
}

// canonical returns each view normalized, as a request's producers build
// it and the sweeps take it.
func canonical(views []interval.List) []interval.List {
	out := make([]interval.List, len(views))
	for i, v := range views {
		out[i] = v.Normalize()
	}
	return out
}

// randViews draws bounded random view sets for the property tests.
func randViews(r *rand.Rand, p int) []interval.List {
	views := make([]interval.List, p)
	for i := range views {
		n := r.Intn(8)
		for k := 0; k < n; k++ {
			views[i] = append(views[i], ext(int64(r.Intn(300)), int64(r.Intn(50))))
		}
	}
	return views
}

func TestQuickClipDisjointAndComplete(t *testing.T) {
	// For random view sets: clipped views are pairwise disjoint and their
	// union equals the union of the original views.
	f := func(seed int64) bool {
		views := randViews(rand.New(rand.NewSource(seed)), 4)
		clips := make([]interval.List, len(views))
		var union, clipUnion interval.List
		for i := range views {
			clips[i] = ClipForRank(views, i)
			union = union.Union(views[i])
			clipUnion = clipUnion.Union(clips[i])
		}
		for i := range clips {
			for j := i + 1; j < len(clips); j++ {
				if clips[i].Overlaps(clips[j]) {
					return false
				}
			}
		}
		return slices.Equal(clipUnion, union)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHighestRankOwnsEveryContestedByte(t *testing.T) {
	f := func(seed int64) bool {
		views := randViews(rand.New(rand.NewSource(seed)), 3)
		// Every byte of views[2] stays with rank 2.
		if !slices.Equal(ClipForRank(views, 2), views[2].Normalize()) {
			return false
		}
		// A byte in both views[0] and views[2] never survives in clip 0.
		shared := views[0].Intersect(views[2])
		return !ClipForRank(views, 0).Overlaps(shared)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOverlapMatrixFromSpansIsConservative(t *testing.T) {
	// Interleaved but disjoint views: exact matrix says no overlap, span
	// matrix says overlap.
	views := []interval.List{
		{ext(0, 2), ext(10, 2)},
		{ext(5, 2), ext(15, 2)},
	}
	exact := BuildOverlapMatrix(views).Dense()
	if exact[0][1] {
		t.Fatal("exact matrix wrong")
	}
	spans := []interval.Extent{views[0].Span(), views[1].Span()}
	cons := BuildOverlapMatrixFromSpans(spans).Dense()
	if !cons[0][1] || !cons[1][0] {
		t.Fatal("span matrix should be conservative")
	}
}

func TestExtentCodecRoundTrip(t *testing.T) {
	l := interval.List{ext(3, 4), ext(100, 1), ext(1<<40, 1<<20)}
	got, err := DecodeExtents(EncodeExtents(l))
	if err != nil || !slices.Equal(got, l) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := DecodeExtents(make([]byte, 8)); err == nil {
		t.Fatal("odd payload should fail")
	}
}

func TestByNameAndAll(t *testing.T) {
	for _, name := range []string{"locking", "coloring", "ordering"} {
		s, err := ByName(name)
		if err != nil || s.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("two-phase"); err == nil {
		t.Fatal("unknown strategy should fail")
	}
}

// buildOverlapMatrixLinear is the reference O(P²·E) pairwise construction of
// W that BuildOverlapMatrix's sweep is pinned to.
func buildOverlapMatrixLinear(views []interval.List) OverlapMatrix {
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
	return sparse(w)
}

// TestSweepMatrixMatchesLinearOracle pins the sweep-line overlap matrix to
// the pre-index pairwise implementation on randomized view sets.
func TestSweepMatrixMatchesLinearOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 300; round++ {
		views := canonical(randViews(r, 1+r.Intn(33)))
		got := BuildOverlapMatrix(views)
		want := buildOverlapMatrixLinear(views)
		if got.String() != want.String() {
			t.Fatalf("sweep matrix differs from linear oracle:\n%v\nwant\n%v\nviews=%v",
				got, want, views)
		}
	}
}

// TestSpanMatrixMatchesPairwiseOracle pins span mode to pairwise
// Extent.Overlaps, including empty spans.
func TestSpanMatrixMatchesPairwiseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for round := 0; round < 300; round++ {
		p := 1 + r.Intn(9)
		spans := make([]interval.Extent, p)
		for i := range spans {
			spans[i] = ext(int64(r.Intn(250)), int64(r.Intn(40)))
		}
		got := BuildOverlapMatrixFromSpans(spans).Dense()
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

// TestClipAllMatchesClipForRank pins the one-sweep clip to the per-rank
// subtract implementation the rank-ordering strategy uses.
func TestClipAllMatchesClipForRank(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for round := 0; round < 200; round++ {
		views := canonical(randViews(r, 1+r.Intn(33)))
		clips := index.ClipAll(views)
		for rank := range views {
			want := ClipForRank(views, rank)
			if !slices.Equal(clips[rank], want) {
				t.Fatalf("ClipAll[%d] = %v, want %v\nviews=%v", rank, clips[rank], want, views)
			}
		}
	}
}

// shapedViews draws the view shapes that stress the streamed merge and its
// lazy closes: empty views, one-extent views, copies of an earlier view
// (equal offsets across ranks), chains of touching and empty extents
// [a,x) [x,x) [x,b), canonical views and unsorted overlapping ones, on
// coordinates small enough that endpoints tie often — each then made
// canonical, as the strategies take them.
func shapedViews(r *rand.Rand, p int) []interval.List {
	views := make([]interval.List, p)
	for i := range views {
		switch shape := r.Intn(6); {
		case shape == 0:
			// empty
		case shape == 1:
			views[i] = interval.List{ext(int64(r.Intn(60)), 1+int64(r.Intn(20)))}
		case shape == 2 && i > 0:
			views[i] = views[r.Intn(i)].Clone()
		case shape == 3:
			off := int64(r.Intn(20))
			for k := r.Intn(6); k >= 0; k-- {
				l := int64(r.Intn(9))
				views[i] = append(views[i], ext(off, l))
				off += l
			}
		case shape == 4:
			views[i] = randViews(r, 1)[0].Normalize()
		default:
			views[i] = randViews(r, 1)[0]
		}
	}
	return canonical(views)
}

// TestSharedHandshakeAlgebraMatchesPerRankOracles pins what the strategies
// now compute once per collective — the swept matrix and the one-sweep
// clips — to the per-rank reference implementations they replaced, on the
// adversarial shapes and at rank counts (1..33) that leave the merge's
// loser tree with leaves at two depths.
func TestSharedHandshakeAlgebraMatchesPerRankOracles(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for round := 0; round < 400; round++ {
		views := shapedViews(r, 1+r.Intn(33))
		if got, want := BuildOverlapMatrix(views), buildOverlapMatrixLinear(views); got.String() != want.String() {
			t.Fatalf("round %d: swept matrix\n%v\nwant\n%v\nviews=%v", round, got, want, views)
		}
		clips := index.ClipAll(views)
		for rank := range views {
			if want := ClipForRank(views, rank); !slices.Equal(clips[rank], want) {
				t.Fatalf("round %d: ClipAll[%d] = %v, want %v\nviews=%v", round, rank, clips[rank], want, views)
			}
		}
	}
}
