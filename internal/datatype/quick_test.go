package datatype

// Property tests: Flatten of randomly generated derived-type trees is
// checked against a naive byte-coverage reference model, and the
// Size/Extent invariants are pinned for every constructor. The trees nest
// contiguous and subarray types over elementary and padded (test-only,
// trailing-hole) bases, so containers meet non-dense bases at every depth.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCover returns the covered byte offsets of one instance of dt, computed
// by definitional recursion without any of Flatten's coalescing logic.
func refCover(dt Datatype) map[int64]bool {
	out := make(map[int64]bool)
	addShifted := func(m map[int64]bool, d int64) {
		for o := range m {
			out[o+d] = true
		}
	}
	switch t := dt.(type) {
	case Elem:
		for i := int64(0); i < t.Width; i++ {
			out[i] = true
		}
	case Contiguous:
		base := refCover(t.Base)
		for i := 0; i < t.Count; i++ {
			addShifted(base, int64(i)*t.Base.Extent())
		}
	case Subarray:
		base := refCover(t.Base)
		be := t.Base.Extent()
		nd := len(t.Sizes)
		var walk func(dim int, elemOff int64)
		walk = func(dim int, elemOff int64) {
			stride := int64(1)
			for d := dim + 1; d < nd; d++ {
				stride *= int64(t.Sizes[d])
			}
			for i := 0; i < t.Subsizes[dim]; i++ {
				off := elemOff + int64(t.Starts[dim]+i)*stride
				if dim == nd-1 {
					addShifted(base, off*be)
				} else {
					walk(dim+1, off)
				}
			}
		}
		walk(0, 0)
	case padded:
		addShifted(refCover(t.Base), t.Lead)
	default:
		panic("refCover: unknown type")
	}
	return out
}

// randType draws a random derived-type tree of bounded depth and size.
// Flatten's walk carries where one of its dimensions wraps into the next,
// which takes a subarray of three or more dimensions, or one over a base
// that is not dense; leaves are drawn with holes and subarrays up to 4-D
// so that these are common (TestRandTypeDrawsCarryingWalks).
func randType(r *rand.Rand, depth int) Datatype {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return Byte
		case 1:
			return Elem{Width: int64(1 + r.Intn(4)), Name: ""}
		default:
			e := Elem{Width: int64(1 + r.Intn(3)), Name: ""}
			lead := int64(r.Intn(3))
			return padded{Base: e, Lead: lead, Ext: lead + e.Width + int64(r.Intn(3))}
		}
	}
	base := randType(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return NewContiguous(r.Intn(4), base)
	case 1:
		nd := 1 + r.Intn(4)
		sizes := make([]int, nd)
		subs := make([]int, nd)
		starts := make([]int, nd)
		for d := 0; d < nd; d++ {
			sizes[d] = 1 + r.Intn(4)
			subs[d] = r.Intn(sizes[d] + 1)
			if subs[d] < sizes[d] {
				starts[d] = r.Intn(sizes[d] - subs[d] + 1)
			}
		}
		return NewSubarray(sizes, subs, starts, base)
	default:
		// A trailing hole: at least the natural extent.
		return padded{Base: base, Ext: base.Extent() + int64(r.Intn(5))}
	}
}

// carries reports whether dt holds a subarray whose walk carries: one of
// three or more dimensions, or one over a base that is not dense.
func carries(dt Datatype) bool {
	switch t := dt.(type) {
	case Subarray:
		_, dense := flattenBase(t.Base)
		return len(t.Sizes) >= 3 || !dense || carries(t.Base)
	case Contiguous:
		return carries(t.Base)
	case padded:
		return carries(t.Base)
	}
	return false
}

// TestRandTypeDrawsCarryingWalks holds the quick tests' generator to types
// whose walk carries: at least a quarter of the types drawn, at the depths
// the tests draw, from a fixed seed.
func TestRandTypeDrawsCarryingWalks(t *testing.T) {
	const n = 2000
	r := rand.New(rand.NewSource(1))
	carrying := 0
	for range n {
		if carries(randType(r, 1+r.Intn(2))) {
			carrying++
		}
	}
	t.Logf("%d of %d drawn types carry", carrying, n)
	if 4*carrying < n {
		t.Fatalf("only %d of %d drawn types carry; want at least a quarter", carrying, n)
	}
}

func TestQuickFlattenMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 1+r.Intn(2))
		flat := dt.Flatten()
		// Well-formed: ordered, non-overlapping, coalesced, non-empty.
		var total int64
		for i, s := range flat {
			if s.Empty() {
				return false
			}
			if i > 0 && flat[i-1].End() >= s.Off {
				return false
			}
			total += s.Len
		}
		if total != dt.Size() {
			return false
		}
		// Coverage matches the definitional model.
		ref := refCover(dt)
		if int64(len(ref)) != total {
			return false
		}
		for _, s := range flat {
			for o := s.Off; o < s.End(); o++ {
				if !ref[o] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtentCoversFlatten(t *testing.T) {
	// Every flattened segment lies within [first, first+Extent).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 1+r.Intn(2))
		flat := dt.Flatten()
		if len(flat) == 0 {
			return dt.Size() == 0
		}
		last := flat[len(flat)-1].End()
		// Extent may exceed the last byte (trailing holes of padded or
		// Subarray whole-array extents) but must never undershoot the
		// span of the data relative to the first byte for tiling safety.
		return dt.Extent() >= last-flat[0].Off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickContiguousTilingEquivalence(t *testing.T) {
	// Contiguous(n, base) covers the same bytes as n shifted copies of
	// base at stride Extent(base) — the tiling rule file views rely on.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := randType(r, 1)
		n := 1 + r.Intn(3)
		cont := refCover(NewContiguous(n, base))
		want := make(map[int64]bool)
		single := refCover(base)
		for i := 0; i < n; i++ {
			for o := range single {
				want[o+int64(i)*base.Extent()] = true
			}
		}
		if len(cont) != len(want) {
			return false
		}
		for o := range want {
			if !cont[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
