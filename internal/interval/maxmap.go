package interval

import (
	"cmp"
	"slices"
	"sort"
)

// MaxMap remembers, per byte, the largest value recorded over a range that
// covers it: the lock table's history of release times, and a trace's
// releases ranked by finish. Entries are kept sorted by offset and
// disjoint; recording over an existing entry splits it so every byte keeps
// the maximum value seen, and equal-valued neighbours are coalesced. The
// zero value is an empty map, whose every byte reads as V's zero value.
type MaxMap[V cmp.Ordered] struct {
	entries []maxEntry[V]
	scratch []maxEntry[V] // Record's replacement pieces, reused
}

type maxEntry[V cmp.Ordered] struct {
	ext Extent
	v   V
}

// Max returns the largest value recorded over any byte of e, or V's zero
// value, and how many entries it read: those overlapping e, found by binary
// search. The lock table runs it once per grant decision: it must not
// allocate (lock.TestHandOffAllocationIndependentOfWaiters).
func (m *MaxMap[V]) Max(e Extent) (v V, read int) {
	if e.Empty() {
		return v, 0
	}
	lo := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].ext.End() > e.Off
	})
	i := lo
	for ; i < len(m.entries) && m.entries[i].ext.Off < e.End(); i++ {
		v = max(v, m.entries[i].v)
	}
	return v, i - lo
}

// window returns the index range [lo, hi) of the entries that overlap or
// abut e — the only ones a record of e can change or coalesce with. It
// must not allocate (TestMaxMapRecordInPlace).
func (m *MaxMap[V]) window(e Extent) (lo, hi int) {
	lo = sort.Search(len(m.entries), func(i int) bool { return m.entries[i].ext.End() >= e.Off })
	hi = lo + sort.Search(len(m.entries)-lo, func(i int) bool { return m.entries[lo+i].ext.Off > e.End() })
	return lo, hi
}

// Record notes v over e. Only the window of entries e touches is rebuilt,
// in offset order on the map's scratch — each entry's part outside e
// unchanged, the maximum value where it overlaps e, v where e covers bytes
// no entry does, equal-valued neighbours coalesced as they are emitted —
// and spliced back in place (the column-wise locking spans leave a sliver
// per rank in the lock table's history).
func (m *MaxMap[V]) Record(e Extent, v V) {
	if e.Empty() {
		return
	}
	lo, hi := m.window(e)
	out := m.scratch[:0]
	emit := func(off, end int64, v V) {
		if off >= end {
			return
		}
		if n := len(out); n > 0 && out[n-1].v == v && out[n-1].ext.End() == off {
			out[n-1].ext.Len += end - off
			return
		}
		out = append(out, maxEntry[V]{ext: Extent{Off: off, Len: end - off}, v: v})
	}
	pos := e.Off // bytes of e before pos are emitted
	for _, en := range m.entries[lo:hi] {
		from, to := max(en.ext.Off, e.Off), min(en.ext.End(), e.End())
		emit(en.ext.Off, min(en.ext.End(), e.Off), en.v)
		emit(pos, from, v)
		emit(from, to, max(en.v, v))
		emit(max(en.ext.Off, e.End()), en.ext.End(), en.v)
		pos = max(pos, to)
	}
	emit(pos, e.End(), v)
	m.entries = slices.Replace(m.entries, lo, hi, out...)
	m.scratch = out[:0]
}
