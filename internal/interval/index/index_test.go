package index

import (
	"slices"
	"testing"

	"atomio/internal/interval"
)

func ext(off, n int64) interval.Extent { return interval.Extent{Off: off, Len: n} }

// collect gathers an Overlapping query's results in visit order.
func collect(ix *Index[int], q interval.Extent) []int {
	var out []int
	ix.Overlapping(q, func(_ interval.Extent, _ Handle, v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

func TestIndexInsertQueryDelete(t *testing.T) {
	var ix Index[int]
	h10 := ix.Insert(ext(10, 10), 1) // [10,20)
	ix.Insert(ext(15, 10), 2)        // [15,25)
	ix.Insert(ext(30, 5), 3)         // [30,35)
	ix.Insert(ext(0, 100), 4)        // [0,100)
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	if got := collect(&ix, ext(18, 1)); len(got) != 3 {
		t.Fatalf("stab 18 = %v, want 3 hits", got)
	}
	if got := collect(&ix, ext(26, 2)); len(got) != 1 || got[0] != 4 {
		t.Fatalf("query [26,28) = %v, want [4]", got)
	}
	var stabbed []int
	ix.Stab(16, func(_ interval.Extent, _ Handle, v int) bool {
		stabbed = append(stabbed, v)
		return true
	})
	if len(stabbed) != 3 || stabbed[0] != 4 || stabbed[1] != 1 || stabbed[2] != 2 {
		t.Fatalf("Stab(16) = %v, want [4 1 2]", stabbed)
	}
	ix.Stab(25, func(_ interval.Extent, _ Handle, v int) bool {
		if v != 4 {
			t.Fatalf("Stab(25) hit %d; offset 25 is inside [0,100) only", v)
		}
		return true
	})
	if v, ok := ix.Delete(ext(10, 10), h10); !ok || v != 1 {
		t.Fatalf("Delete = %v,%v", v, ok)
	}
	if _, ok := ix.Delete(ext(10, 10), h10); ok {
		t.Fatal("second Delete succeeded")
	}
	if got := collect(&ix, ext(12, 1)); len(got) != 1 || got[0] != 4 {
		t.Fatalf("stab 12 after delete = %v, want [4]", got)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len after delete = %d, want 3", ix.Len())
	}
}

func TestIndexVisitOrderAndEarlyStop(t *testing.T) {
	var ix Index[int]
	ix.Insert(ext(20, 5), 2)
	ix.Insert(ext(0, 100), 0)
	ix.Insert(ext(20, 5), 3) // same key range, later handle
	ix.Insert(ext(5, 30), 1)
	got := collect(&ix, ext(0, 200))
	want := []int{0, 1, 2, 3} // (Off, Handle) order
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("visit order = %v, want %v", got, want)
		}
	}
	n := 0
	done := ix.Overlapping(ext(0, 200), func(interval.Extent, Handle, int) bool {
		n++
		return n < 2
	})
	if done || n != 2 {
		t.Fatalf("early stop: done=%v n=%d", done, n)
	}
}

func TestIndexEmptyExtents(t *testing.T) {
	var ix Index[int]
	h := ix.Insert(ext(10, 0), 1)
	if got := collect(&ix, ext(0, 100)); len(got) != 0 {
		t.Fatalf("empty extent reported: %v", got)
	}
	if got := collect(&ix, interval.Extent{}); len(got) != 0 {
		t.Fatal("empty query reported hits")
	}
	if _, ok := ix.Delete(ext(10, 0), h); !ok {
		t.Fatal("could not delete empty extent by handle")
	}
}

func TestSweepOverlapsColumnWise(t *testing.T) {
	// Three interleaved "column" views: neighbours share a column, rank 0
	// and rank 2 do not.
	views := []interval.List{
		{ext(0, 2), ext(10, 2), ext(20, 2)},
		{ext(1, 2), ext(11, 2), ext(21, 2)},
		{ext(2, 2), ext(12, 2), ext(22, 2)},
	}
	w := SweepOverlaps(views)
	if want := [][]int32{{1}, {0, 2}, {1}}; !slices.EqualFunc(w, want, slices.Equal[[]int32]) {
		t.Fatalf("adjacency = %v, want %v (neighbours only)", w, want)
	}
}

// linked reports whether the adjacency rows w hold the pair (i, j).
func linked(w [][]int32, i, j int) bool {
	_, found := slices.BinarySearch(w[i], int32(j))
	return found
}

func TestSweepTouchingIsNotOverlap(t *testing.T) {
	w := SweepOverlaps([]interval.List{{ext(0, 10)}, {ext(10, 10)}})
	if linked(w, 0, 1) || linked(w, 1, 0) {
		t.Fatal("touching extents reported as overlapping")
	}
}

func TestClipAllHighestRankWins(t *testing.T) {
	views := []interval.List{
		{ext(0, 10)}, // rank 0: loses [5,10) to rank 1, keeps [0,5)
		{ext(5, 10)}, // rank 1: loses [12,15) to rank 2, keeps [5,12)
		{ext(12, 3)}, // rank 2: keeps everything
	}
	got := ClipAll(views)
	want := []interval.List{{ext(0, 5)}, {ext(5, 7)}, {ext(12, 3)}}
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("rank %d clip = %v, want %v", r, got[r], want[r])
		}
	}
}
