package lock

import (
	"slices"
	"sort"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// releaseMap remembers, per byte range, the latest virtual time at which a
// lock on that range was released. Entries are kept sorted by offset and
// disjoint; recording a release over an existing entry splits it so every
// byte keeps the maximum release time seen, and equal-valued neighbours are
// coalesced. The zero value is ready to use.
type releaseMap struct {
	entries []relEntry
	scratch []relEntry // record's replacement pieces, reused
}

type relEntry struct {
	ext interval.Extent
	at  sim.VTime
}

// latest returns the maximum recorded release time over any byte of e,
// or 0. Runs once per grant decision: it must not allocate
// (TestHandOffAllocationIndependentOfWaiters).
func (m *releaseMap) latest(e interval.Extent) sim.VTime {
	if e.Empty() {
		return 0
	}
	i := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].ext.End() > e.Off
	})
	var max sim.VTime
	for ; i < len(m.entries) && m.entries[i].ext.Off < e.End(); i++ {
		if m.entries[i].at > max {
			max = m.entries[i].at
		}
	}
	return max
}

// window returns the index range [lo, hi) of the entries that overlap or
// abut e — the only ones a record of e can change or coalesce with. It
// must not allocate (TestReleaseMapRecordInPlace).
func (m *releaseMap) window(e interval.Extent) (lo, hi int) {
	lo = sort.Search(len(m.entries), func(i int) bool { return m.entries[i].ext.End() >= e.Off })
	hi = lo + sort.Search(len(m.entries)-lo, func(i int) bool { return m.entries[lo+i].ext.Off > e.End() })
	return lo, hi
}

// record notes that a lock on e was released at virtual time `at`. Only the
// window of entries e touches is rebuilt, in offset order on the map's
// scratch — each entry's part outside e unchanged, the maximum time where
// it overlaps e, `at` where e covers bytes no entry does, equal-valued
// neighbours coalesced as they are emitted — and spliced back in place
// (the column-wise locking spans leave a sliver per rank in the history).
func (m *releaseMap) record(e interval.Extent, at sim.VTime) {
	if e.Empty() {
		return
	}
	lo, hi := m.window(e)
	out := m.scratch[:0]
	emit := func(off, end int64, v sim.VTime) {
		if off >= end {
			return
		}
		if n := len(out); n > 0 && out[n-1].at == v && out[n-1].ext.End() == off {
			out[n-1].ext.Len += end - off
			return
		}
		out = append(out, relEntry{ext: interval.Extent{Off: off, Len: end - off}, at: v})
	}
	pos := e.Off // bytes of e before pos are emitted
	for _, en := range m.entries[lo:hi] {
		from, to := max(en.ext.Off, e.Off), min(en.ext.End(), e.End())
		emit(en.ext.Off, min(en.ext.End(), e.Off), en.at)
		emit(pos, from, at)
		emit(from, to, max(en.at, at))
		emit(max(en.ext.Off, e.End()), en.ext.End(), en.at)
		pos = max(pos, to)
	}
	emit(pos, e.End(), at)
	m.entries = slices.Replace(m.entries, lo, hi, out...)
	m.scratch = out[:0]
}
