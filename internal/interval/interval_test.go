package interval

import "testing"

func TestExtentEnd(t *testing.T) {
	e := Extent{Off: 10, Len: 5}
	if got := e.End(); got != 15 {
		t.Fatalf("End() = %d, want 15", got)
	}
}

func TestExtentEmpty(t *testing.T) {
	cases := []struct {
		e    Extent
		want bool
	}{
		{Extent{0, 0}, true},
		{Extent{5, 0}, true},
		{Extent{5, -1}, true},
		{Extent{5, 1}, false},
	}
	for _, c := range cases {
		if got := c.e.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestExtentContainsExtent(t *testing.T) {
	e := Extent{10, 10}
	if !e.ContainsExtent(Extent{10, 10}) {
		t.Error("extent should contain itself")
	}
	if !e.ContainsExtent(Extent{12, 3}) {
		t.Error("should contain interior extent")
	}
	if !e.ContainsExtent(Extent{0, 0}) {
		t.Error("should contain empty extent")
	}
	if e.ContainsExtent(Extent{5, 10}) {
		t.Error("should not contain left-overhanging extent")
	}
	if e.ContainsExtent(Extent{15, 10}) {
		t.Error("should not contain right-overhanging extent")
	}
}

func TestExtentOverlaps(t *testing.T) {
	cases := []struct {
		a, b Extent
		want bool
	}{
		{Extent{0, 10}, Extent{5, 10}, true},
		{Extent{0, 10}, Extent{10, 10}, false}, // adjacent, half-open
		{Extent{0, 10}, Extent{20, 10}, false},
		{Extent{0, 10}, Extent{0, 0}, false}, // empty never overlaps
		{Extent{5, 1}, Extent{0, 10}, true},  // containment
		{Extent{0, 10}, Extent{9, 1}, true},  // last byte
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestExtentIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Extent
	}{
		{Extent{0, 10}, Extent{5, 10}, Extent{5, 5}},
		{Extent{0, 10}, Extent{10, 10}, Extent{}},
		{Extent{0, 10}, Extent{2, 3}, Extent{2, 3}},
		{Extent{0, 10}, Extent{0, 10}, Extent{0, 10}},
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); got != c.want {
			t.Errorf("%v.Intersect(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestExtentUnion(t *testing.T) {
	cases := []struct {
		a, b, want Extent
	}{
		{Extent{0, 10}, Extent{10, 5}, Extent{0, 15}}, // adjacent
		{Extent{0, 10}, Extent{20, 5}, Extent{0, 25}}, // gapped: the cover
		{Extent{}, Extent{3, 4}, Extent{3, 4}},        // empty: the other
		{Extent{3, 4}, Extent{}, Extent{3, 4}},
	}
	for _, c := range cases {
		if got := c.a.Union(c.b); got != c.want {
			t.Errorf("%v.Union(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestExtentSubtract(t *testing.T) {
	e := Extent{10, 10}
	cases := []struct {
		sub  Extent
		want []Extent
	}{
		{Extent{0, 5}, []Extent{{10, 10}}},          // disjoint
		{Extent{10, 10}, nil},                       // exact
		{Extent{0, 100}, nil},                       // superset
		{Extent{10, 3}, []Extent{{13, 7}}},          // prefix
		{Extent{17, 3}, []Extent{{10, 7}}},          // suffix
		{Extent{13, 3}, []Extent{{10, 3}, {16, 4}}}, // middle split
		{Extent{5, 7}, []Extent{{12, 8}}},           // left overhang
		{Extent{18, 100}, []Extent{{10, 8}}},        // right overhang
	}
	for _, c := range cases {
		got := e.Subtract(c.sub)
		if len(got) != len(c.want) {
			t.Errorf("%v.Subtract(%v) = %v, want %v", e, c.sub, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v.Subtract(%v) = %v, want %v", e, c.sub, got, c.want)
			}
		}
	}
}

func TestExtentShiftClamp(t *testing.T) {
	if got := (Extent{5, 3}).Shift(100); got != (Extent{105, 3}) {
		t.Errorf("Shift = %v", got)
	}
	if got := (Extent{5, 10}).Intersect(Extent{8, 100}); got != (Extent{8, 7}) {
		t.Errorf("clamped to a window = %v", got)
	}
}

func TestExtentString(t *testing.T) {
	if got := (Extent{3, 4}).String(); got != "[3,7)" {
		t.Errorf("String = %q", got)
	}
}
