package interval

import (
	"cmp"
	"slices"
	"strings"
)

// List is a sequence of extents. A List in canonical form is sorted by
// offset, has no empty extents, and no two extents overlap or touch.
//
// Lists are canonical where they are built — Flatten, a file view's
// Extents, index.ClipAll and the set operations below — and the consumers
// that take them so (the index sweeps, the view exchange, Bounds) do not
// check. Normalize stays where lists are not built that way: a
// write-behind log, fault damage, the set operations' arguments.
type List []Extent

// TotalLen returns the sum of the lengths of all extents.
func (l List) TotalLen() int64 {
	var n int64
	for _, e := range l {
		n += e.Len
	}
	return n
}

// Span returns the smallest single extent covering every extent in the list.
// The span of an empty (or all-empty) list is the empty extent.
func (l List) Span() Extent {
	var span Extent
	for _, e := range l {
		if !e.Empty() {
			span = span.Union(e)
		}
	}
	return span
}

// Bounds is Span for a canonical list, in O(1): its first extent's offset
// to its last extent's end. It is what the byte-range locking strategy
// locks: "the file lock must start at the process's first file offset and
// end at the very last file offset the process will write" (§3.2).
func (l List) Bounds() Extent {
	if len(l) == 0 {
		return Extent{}
	}
	return Extent{Off: l[0].Off, Len: l[len(l)-1].End() - l[0].Off}
}

// IsCanonical reports whether the list is sorted, free of empty extents, and
// free of overlapping or touching neighbours.
func (l List) IsCanonical() bool {
	for i, e := range l {
		if e.Empty() {
			return false
		}
		if i > 0 && l[i-1].End() >= e.Off {
			return false
		}
	}
	return true
}

// Normalize returns the canonical form of the list: sorted, empty extents
// dropped, overlapping and adjacent extents coalesced. The receiver is not
// modified. A list that is already canonical is returned as-is, with no
// allocation — the hot path of every set-algebra call, since flattened
// datatypes and exchanged views arrive canonical. The result therefore may
// alias the receiver; callers must not write through it. Any other result is
// allocated at its size, after a sorted copy when the list is not in offset
// order.
func (l List) Normalize() List {
	if l.IsCanonical() {
		return l
	}
	byOff := func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) }
	if slices.IsSortedFunc(l, byOff) {
		return coalesce(l)
	}
	tmp := slices.Clone(l)
	slices.SortFunc(tmp, byOff)
	return coalesce(tmp)
}

// coalesce returns the canonical form of l, which is in offset order: the
// first pass counts the runs of overlapping and touching extents, the second
// fills them in, so the result is allocated once, at its size.
func coalesce(l List) List {
	var out List
	for fill := false; ; fill = true {
		n := 0
		var cur Extent // the run being extended, out[n-1]
		for _, e := range l {
			switch {
			case e.Empty():
				continue
			case n > 0 && cur.End() >= e.Off:
				cur.Len = max(cur.End(), e.End()) - cur.Off
			default:
				cur, n = e, n+1
			}
			if fill {
				out[n-1] = cur
			}
		}
		if fill {
			return out
		}
		out = make(List, n)
	}
}

// Union returns the canonical union of l and m.
func (l List) Union(m List) List {
	all := make(List, 0, len(l)+len(m))
	all = append(all, l...)
	all = append(all, m...)
	return all.Normalize()
}

// Intersect returns the canonical intersection of l and m.
// Both lists are normalized first; the result contains exactly the bytes
// present in both.
func (l List) Intersect(m List) List {
	a, b := l.Normalize(), m.Normalize()
	var out List
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ov := a[i].Intersect(b[j])
		if !ov.Empty() {
			out = append(out, ov)
		}
		if a[i].End() < b[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns the canonical list of bytes in l that are not in m.
// This is the core operation of the process-rank ordering strategy: a rank
// subtracts the union of all higher ranks' views from its own view.
func (l List) Subtract(m List) List {
	a, b := l.Normalize(), m.Normalize()
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	var out List
	j := 0
	for _, e := range a {
		cur := e
		for j < len(b) && b[j].End() <= cur.Off {
			j++
		}
		k := j
		for k < len(b) && b[k].Off < cur.End() {
			ov := cur.Intersect(b[k])
			if ov.Off > cur.Off {
				out = append(out, Extent{Off: cur.Off, Len: ov.Off - cur.Off})
			}
			if ov.End() >= cur.End() {
				cur = Extent{}
				break
			}
			cur = Extent{Off: ov.End(), Len: cur.End() - ov.End()}
			k++
		}
		if !cur.Empty() {
			out = append(out, cur)
		}
	}
	return out
}

// Overlaps reports whether any byte is present in both l and m.
// It is the boolean test used to build the overlap matrix W in the
// graph-coloring strategy (paper Figure 5) and is cheaper than Intersect
// because it stops at the first common byte.
func (l List) Overlaps(m List) bool {
	a, b := l.Normalize(), m.Normalize()
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	// Disjoint bounding spans reject without walking a single extent;
	// canonical lists expose their span as first offset to last end.
	if a[len(a)-1].End() <= b[0].Off || b[len(b)-1].End() <= a[0].Off {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Overlaps(b[j]) {
			return true
		}
		if a[i].End() < b[j].End() {
			i++
		} else {
			j++
		}
	}
	return false
}

// Shift returns a copy of the list with every extent displaced by d bytes.
func (l List) Shift(d int64) List {
	out := make(List, len(l))
	for i, e := range l {
		out[i] = e.Shift(d)
	}
	return out
}

// Clone returns a deep copy of the list.
func (l List) Clone() List {
	out := make(List, len(l))
	copy(out, l)
	return out
}

// String formats the list as "[a,b) [c,d) ...".
func (l List) String() string {
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}
