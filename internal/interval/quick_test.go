package interval

// Property-based tests over randomly generated extent lists, using
// testing/quick. These pin down the set-algebra identities every other
// package in the repository depends on.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// genList draws a random, possibly messy (unsorted, overlapping, with
// empties) extent list from r.
func genList(r *rand.Rand) List {
	n := r.Intn(12)
	l := make(List, 0, n)
	for i := 0; i < n; i++ {
		l = append(l, Extent{
			Off: int64(r.Intn(200)),
			Len: int64(r.Intn(40)), // may be 0
		})
	}
	return l
}

// Generate implements quick.Generator so quick.Check can produce Lists.
func (List) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genList(r))
}

// coverage returns the set of covered offsets, the reference model every
// property below is checked against.
func coverage(l List) map[int64]bool {
	m := make(map[int64]bool)
	for _, e := range l {
		for o := e.Off; o < e.End(); o++ {
			m[o] = true
		}
	}
	return m
}

func sameCoverage(a map[int64]bool, l List) bool {
	b := coverage(l)
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

var quickCfg = &quick.Config{MaxCount: 300}

func TestQuickNormalizePreservesCoverage(t *testing.T) {
	f := func(l List) bool {
		n := l.Normalize()
		return n.IsCanonical() && sameCoverage(coverage(l), n)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionModel(t *testing.T) {
	f := func(a, b List) bool {
		got := a.Union(b)
		want := coverage(a)
		for o := range coverage(b) {
			want[o] = true
		}
		return got.IsCanonical() && sameCoverage(want, got)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectModel(t *testing.T) {
	f := func(a, b List) bool {
		got := a.Intersect(b)
		ca, cb := coverage(a), coverage(b)
		want := make(map[int64]bool)
		for o := range ca {
			if cb[o] {
				want[o] = true
			}
		}
		return got.IsCanonical() && sameCoverage(want, got)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractModel(t *testing.T) {
	f := func(a, b List) bool {
		got := a.Subtract(b)
		ca, cb := coverage(a), coverage(b)
		want := make(map[int64]bool)
		for o := range ca {
			if !cb[o] {
				want[o] = true
			}
		}
		return got.IsCanonical() && sameCoverage(want, got)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapsAgreesWithIntersect(t *testing.T) {
	f := func(a, b List) bool {
		return a.Overlaps(b) == (len(a.Intersect(b)) > 0)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractUnionPartition(t *testing.T) {
	// (a-b), (b-a), (a∩b) partition (a∪b): pairwise disjoint, union equal.
	f := func(a, b List) bool {
		amb := a.Subtract(b)
		bma := b.Subtract(a)
		ab := a.Intersect(b)
		if amb.Overlaps(bma) || amb.Overlaps(ab) || bma.Overlaps(ab) {
			return false
		}
		return slices.Equal(amb.Union(bma).Union(ab), a.Union(b))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTotalLenAfterNormalizeMatchesCoverage(t *testing.T) {
	f := func(l List) bool {
		return l.Normalize().TotalLen() == int64(len(coverage(l)))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSpanContainsAll(t *testing.T) {
	f := func(l List) bool {
		span := l.Span()
		for _, e := range l {
			if !e.Empty() && !span.ContainsExtent(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtentSubtractModel(t *testing.T) {
	f := func(a, b List) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		e, s := a[0], b[0]
		got := List(e.Subtract(s))
		ce := coverage(List{e})
		cs := coverage(List{s})
		want := make(map[int64]bool)
		for o := range ce {
			if !cs[o] {
				want[o] = true
			}
		}
		return sameCoverage(want, got)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// bounds is List.Bounds behind its precondition, which Bounds does not
// check: the list is canonical.
func bounds(t *testing.T, l List) Extent {
	t.Helper()
	if !l.IsCanonical() {
		t.Fatalf("Bounds of %v, which is not canonical", l)
	}
	return l.Bounds()
}

func TestQuickBoundsOfCanonicalListIsSpan(t *testing.T) {
	f := func(l List) bool {
		return bounds(t, l.Normalize()) == l.Span()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
