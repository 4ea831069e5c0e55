package lock

import (
	"cmp"
	"slices"
	"sort"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// releaseMap remembers, per byte range, the latest virtual time at which a
// lock on that range was released. Entries are kept sorted by offset and
// disjoint; recording a release over an existing entry splits it so every
// byte keeps the maximum release time seen. The zero value is ready to use.
type releaseMap struct {
	entries []relEntry
}

type relEntry struct {
	ext interval.Extent
	at  sim.VTime
}

// latest returns the maximum recorded release time over any byte of e,
// or 0. Runs once per grant decision: it must not allocate.
//
//atomiovet:hotpath
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

// record notes that a lock on e was released at virtual time `at`. The
// affected window is rebuilt from elementary cut intervals, taking the
// maximum time where ranges overlap — simple and obviously correct; release
// maps stay small because equal-valued neighbours are coalesced.
func (m *releaseMap) record(e interval.Extent, at sim.VTime) {
	if e.Empty() {
		return
	}
	var out []relEntry
	var affected []relEntry
	for _, en := range m.entries {
		if en.ext.Overlaps(e) {
			affected = append(affected, en)
		} else {
			out = append(out, en)
		}
	}
	cutSet := map[int64]bool{e.Off: true, e.End(): true}
	for _, en := range affected {
		cutSet[en.ext.Off] = true
		cutSet[en.ext.End()] = true
	}
	cuts := make([]int64, 0, len(cutSet))
	for c := range cutSet {
		cuts = append(cuts, c)
	}
	slices.Sort(cuts)
	for k := 0; k+1 < len(cuts); k++ {
		piece := interval.Extent{Off: cuts[k], Len: cuts[k+1] - cuts[k]}
		var v sim.VTime
		covered := false
		if e.ContainsExtent(piece) {
			v, covered = at, true
		}
		for _, en := range affected {
			if en.ext.ContainsExtent(piece) {
				covered = true
				if en.at > v {
					v = en.at
				}
			}
		}
		if covered {
			out = append(out, relEntry{ext: piece, at: v})
		}
	}
	slices.SortFunc(out, func(a, b relEntry) int { return cmp.Compare(a.ext.Off, b.ext.Off) })
	// Coalesce equal-valued neighbours to keep the map small.
	merged := out[:0]
	for _, en := range out {
		if n := len(merged); n > 0 && merged[n-1].at == en.at && merged[n-1].ext.End() == en.ext.Off {
			merged[n-1].ext.Len += en.ext.Len
			continue
		}
		merged = append(merged, en)
	}
	m.entries = merged
}
