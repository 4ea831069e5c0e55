package index

import (
	"cmp"
	"slices"
	"sort"

	"atomio/internal/interval"
)

// Set is a set of covered bytes that sorts on read: Add appends to a
// pending list, and the first query after it settles that list into the
// canonical one — a sorted slice of disjoint, non-touching extents the
// queries binary-search. The zero value is an empty set. Queries settle,
// so every method mutates the set: callers need exclusive access even to
// read.
//
// Set is what incremental coverage tracking wants: the sparse file store
// answers "which parts of this read were ever written" from it without
// walking its chunk map.
type Set struct {
	ext     interval.List // canonical
	pending interval.List // added since the last settle
}

// Add covers e. Once the pending list outgrows both the canonical one and
// 4096 entries Add settles it, so a set written far more often than read
// holds O(canonical) entries, at an amortized O(log) per Add.
func (s *Set) Add(e interval.Extent) {
	if e.Empty() {
		return
	}
	s.pending = append(s.pending, e)
	if len(s.pending) >= max(len(s.ext), 1<<12) {
		s.settle()
	}
}

// settle sorts the pending extents together with the canonical entries
// ext[lo:hi] they overlap or touch, coalesces them in place, and puts the
// result where ext[lo:hi] was. Entries outside [lo, hi) are only moved, so
// a few adds into a long list cost a binary search and a memmove, as
// inserting them in place did.
func (s *Set) settle() {
	p := s.pending
	if len(p) == 0 {
		return
	}
	first, last := p[0].Off, p[0].End()
	for _, e := range p {
		first, last = min(first, e.Off), max(last, e.End())
	}
	lo := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() >= first })
	hi := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].Off > last })
	p = append(p, s.ext[lo:hi]...)
	slices.SortFunc(p, func(a, b interval.Extent) int { return cmp.Compare(a.Off, b.Off) })
	merged := p[:0]
	for _, e := range p {
		if n := len(merged); n > 0 && merged[n-1].End() >= e.Off {
			merged[n-1].Len = max(merged[n-1].End(), e.End()) - merged[n-1].Off
			continue
		}
		merged = append(merged, e)
	}
	s.ext, s.pending = slices.Replace(s.ext, lo, hi, merged...), p[:0]
}

// Extents returns a copy of the canonical extent list.
func (s *Set) Extents() interval.List {
	s.settle()
	return s.ext.Clone()
}

// Visit walks e in ascending order, partitioned into maximal runs that are
// entirely covered or entirely uncovered, calling f on each with its
// coverage flag. f returns false to stop early; Visit reports whether the
// walk ran to completion. The uncovered runs are what an Add(e) newly
// covers.
func (s *Set) Visit(e interval.Extent, f func(part interval.Extent, covered bool) bool) bool {
	if e.Empty() {
		return true
	}
	s.settle()
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
