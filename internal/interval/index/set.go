package index

import (
	"sort"

	"atomio/internal/interval"
)

// Set is a set of covered bytes kept in canonical form: a sorted slice of
// disjoint, non-touching extents with binary-searched queries and
// splice-based insertion — O(log n + k) per operation for k affected
// entries. The zero value is an empty set.
//
// Set is what incremental coverage tracking wants: the sparse file store
// answers "which parts of this read were ever written" from it without
// walking its chunk map.
type Set struct {
	ext     interval.List
	covered int64
}

// Len returns the number of stored extents.
func (s *Set) Len() int { return len(s.ext) }

// CoveredBytes returns the total number of covered bytes.
func (s *Set) CoveredBytes() int64 { return s.covered }

// Extents returns a copy of the canonical extent list.
func (s *Set) Extents() interval.List {
	return s.ext.Clone()
}

// Add covers e and returns the parts of e that were not previously covered,
// in ascending order — exactly interval.List{e}.Subtract(before). Touching
// neighbours coalesce, so the set stays canonical.
func (s *Set) Add(e interval.Extent) []interval.Extent {
	if e.Empty() {
		return nil
	}
	// [i, j) is the run of entries overlapping or touching e.
	i := sort.Search(len(s.ext), func(k int) bool { return s.ext[k].End() >= e.Off })
	j := i
	newOff, newEnd := e.Off, e.End()
	var added []interval.Extent
	cur := e.Off
	for ; j < len(s.ext) && s.ext[j].Off <= e.End(); j++ {
		if s.ext[j].Off > cur {
			added = append(added, interval.Extent{Off: cur, Len: s.ext[j].Off - cur})
		}
		if end := s.ext[j].End(); end > cur {
			cur = end
		}
		if s.ext[j].Off < newOff {
			newOff = s.ext[j].Off
		}
		if end := s.ext[j].End(); end > newEnd {
			newEnd = end
		}
	}
	if cur < e.End() {
		added = append(added, interval.Extent{Off: cur, Len: e.End() - cur})
	}
	merged := interval.Extent{Off: newOff, Len: newEnd - newOff}
	if j == i {
		s.ext = append(s.ext, interval.Extent{})
		copy(s.ext[i+1:], s.ext[i:])
		s.ext[i] = merged
	} else {
		s.ext[i] = merged
		s.ext = append(s.ext[:i+1], s.ext[j:]...)
	}
	for _, a := range added {
		s.covered += a.Len
	}
	return added
}

// Visit walks e in ascending order, partitioned into maximal runs that are
// entirely covered or entirely uncovered, calling f on each with its
// coverage flag. f returns false to stop early; Visit reports whether the
// walk ran to completion.
func (s *Set) Visit(e interval.Extent, f func(part interval.Extent, covered bool) bool) bool {
	if e.Empty() {
		return true
	}
	cur := e.Off
	i := sort.Search(len(s.ext), func(k int) bool { return s.ext[k].End() > e.Off })
	for ; i < len(s.ext) && s.ext[i].Off < e.End(); i++ {
		if s.ext[i].Off > cur {
			if !f(interval.Extent{Off: cur, Len: s.ext[i].Off - cur}, false) {
				return false
			}
			cur = s.ext[i].Off
		}
		hi := s.ext[i].End()
		if end := e.End(); hi > end {
			hi = end
		}
		if hi > cur {
			if !f(interval.Extent{Off: cur, Len: hi - cur}, true) {
				return false
			}
			cur = hi
		}
	}
	if cur < e.End() {
		return f(interval.Extent{Off: cur, Len: e.End() - cur}, false)
	}
	return true
}

// Covers reports whether every byte of e is covered. The empty extent is
// covered by definition.
func (s *Set) Covers(e interval.Extent) bool {
	if e.Empty() {
		return true
	}
	i := sort.Search(len(s.ext), func(k int) bool { return s.ext[k].End() > e.Off })
	return i < len(s.ext) && s.ext[i].ContainsExtent(e)
}
