package index

// Queries only the tests ask of an index or a set: the properties and
// fuzz targets observe a Set through them, each settling it first like
// every production query does.

import (
	"sort"

	"atomio/internal/interval"
)

// Stab visits every stored extent containing offset off, in (Off, Handle)
// order, with the same early-stop contract as Overlapping.
func (ix *Index[T]) Stab(off int64, visit func(e interval.Extent, h Handle, v T) bool) bool {
	return ix.Overlapping(interval.Extent{Off: off, Len: 1}, visit)
}

// Len returns the number of canonical extents.
func (s *Set) Len() int {
	s.settle()
	return len(s.ext)
}

// CoveredBytes returns the total number of covered bytes.
func (s *Set) CoveredBytes() int64 {
	s.settle()
	return s.ext.TotalLen()
}

// Covers reports whether every byte of e is covered. The empty extent is
// covered by definition.
func (s *Set) Covers(e interval.Extent) bool {
	if e.Empty() {
		return true
	}
	s.settle()
	i := sort.Search(len(s.ext), func(k int) bool { return s.ext[k].End() > e.Off })
	return i < len(s.ext) && s.ext[i].ContainsExtent(e)
}
