package interval

import (
	"slices"
	"testing"
)

func TestListTotalLen(t *testing.T) {
	l := List{{0, 5}, {10, 5}, {100, 1}}
	if got := l.TotalLen(); got != 11 {
		t.Fatalf("TotalLen = %d, want 11", got)
	}
	if got := (List{}).TotalLen(); got != 0 {
		t.Fatalf("empty TotalLen = %d", got)
	}
}

func TestListSpan(t *testing.T) {
	l := List{{10, 5}, {100, 20}, {50, 1}}
	if got := l.Span(); got != (Extent{10, 110}) {
		t.Fatalf("Span = %v, want [10,120)", got)
	}
	if got := (List{}).Span(); !got.Empty() {
		t.Fatalf("empty Span = %v", got)
	}
	if got := (List{{0, 0}, {7, 2}}).Span(); got != (Extent{7, 2}) {
		t.Fatalf("Span skipping empties = %v", got)
	}
}

func TestListIsCanonical(t *testing.T) {
	cases := []struct {
		l    List
		want bool
	}{
		{List{}, true},
		{List{{0, 5}, {10, 5}}, true},
		{List{{0, 5}, {5, 5}}, false},  // touching
		{List{{0, 5}, {3, 5}}, false},  // overlapping
		{List{{10, 5}, {0, 5}}, false}, // out of order
		{List{{0, 0}}, false},          // empty extent
	}
	for _, c := range cases {
		if got := c.l.IsCanonical(); got != c.want {
			t.Errorf("%v.IsCanonical() = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestListNormalize(t *testing.T) {
	l := List{{10, 5}, {0, 5}, {12, 10}, {30, 0}, {22, 3}}
	got := l.Normalize()
	want := List{{0, 5}, {10, 15}}
	if !slices.Equal(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
	if !got.IsCanonical() {
		t.Fatal("Normalize result not canonical")
	}
	// Receiver unmodified.
	if l[0] != (Extent{10, 5}) {
		t.Fatal("Normalize modified receiver")
	}
}

func TestListNormalizeFastPath(t *testing.T) {
	l := List{{0, 5}, {10, 5}}
	got := l.Normalize()
	if !slices.Equal(got, l) {
		t.Fatalf("fast path changed list: %v", got)
	}
	// The canonical fast path returns the receiver itself — no copy, no
	// allocation; Normalize results are read-only by contract.
	if &got[0] != &l[0] {
		t.Fatal("fast path should return the receiver unchanged")
	}
}

func TestListUnion(t *testing.T) {
	a := List{{0, 10}, {20, 10}}
	b := List{{5, 20}, {40, 5}}
	got := a.Union(b)
	want := List{{0, 30}, {40, 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
}

func TestListIntersect(t *testing.T) {
	a := List{{0, 10}, {20, 10}, {40, 10}}
	b := List{{5, 20}, {45, 100}}
	got := a.Intersect(b)
	want := List{{5, 5}, {20, 5}, {45, 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if got := a.Intersect(List{}); len(got) != 0 {
		t.Fatalf("Intersect with empty = %v", got)
	}
}

func TestListSubtract(t *testing.T) {
	a := List{{0, 100}}
	b := List{{10, 10}, {50, 10}}
	got := a.Subtract(b)
	want := List{{0, 10}, {20, 30}, {60, 40}}
	if !slices.Equal(got, want) {
		t.Fatalf("Subtract = %v, want %v", got, want)
	}
	if got := a.Subtract(a); len(got) != 0 {
		t.Fatalf("a - a = %v, want empty", got)
	}
	if got := (List{}).Subtract(a); len(got) != 0 {
		t.Fatalf("empty - a = %v", got)
	}
	if got := a.Subtract(List{}); !slices.Equal(got, a) {
		t.Fatalf("a - empty = %v", got)
	}
}

func TestListSubtractInterleaved(t *testing.T) {
	// Non-contiguous minus non-contiguous, the rank-ordering case:
	// a column-wise view minus a neighbouring view.
	a := List{{0, 4}, {10, 4}, {20, 4}} // rows of rank i
	b := List{{2, 4}, {12, 4}, {22, 4}} // rows of rank i+1 shifted
	got := a.Subtract(b)
	want := List{{0, 2}, {10, 2}, {20, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("Subtract = %v, want %v", got, want)
	}
}

func TestListOverlaps(t *testing.T) {
	a := List{{0, 10}, {20, 10}}
	if !a.Overlaps(List{{25, 1}}) {
		t.Error("should overlap")
	}
	if a.Overlaps(List{{10, 10}, {30, 5}}) {
		t.Error("should not overlap (fills the gaps)")
	}
	if a.Overlaps(List{}) {
		t.Error("nothing overlaps empty")
	}
}

func TestListClampShiftClone(t *testing.T) {
	a := List{{0, 10}, {20, 10}}
	if got := a.Intersect(List{{5, 18}}); !slices.Equal(got, List{{5, 5}, {20, 3}}) {
		t.Errorf("clamped to a window = %v", got)
	}
	if got := a.Shift(100); !slices.Equal(got, List{{100, 10}, {120, 10}}) {
		t.Errorf("Shift = %v", got)
	}
	c := a.Clone()
	c[0].Off = 999
	if a[0].Off == 999 {
		t.Error("Clone aliased receiver")
	}
}

func TestListString(t *testing.T) {
	if got := (List{{0, 5}, {10, 1}}).String(); got != "[0,5) [10,11)" {
		t.Errorf("String = %q", got)
	}
}
