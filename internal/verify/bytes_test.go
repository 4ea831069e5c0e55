package verify

// The file-system-free side of the checker, which only tests drive:
// CheckBytes runs Check's algorithm over an in-memory image of marker
// bytes, and Winner reads one atom's verdict back out of a report.

import (
	"sort"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
)

// CheckBytes runs the atomicity check against an in-memory file image of
// marker bytes: offset o of the file is data[o], written by rank data[o]-1,
// and zero bytes — and offsets past the end — were never written. It is
// the file-system-free checker adversarial tests and fuzzing drive with
// hand-constructed torn files, and the byte oracle Check's owner runs are
// held to.
func CheckBytes(data []byte, views []interval.List) *Report {
	return checkAtoms(markerRuns(data), views)
}

// markerRuns turns an image of marker bytes into owner runs: maximal runs
// of one nonzero byte b, owned by rank b-1. It counts the runs first, so
// the list is allocated once, at its size.
func markerRuns(data []byte) []index.Owned {
	n := 0
	for i, b := range data {
		if b != 0 && (i == 0 || data[i-1] != b) {
			n++
		}
	}
	runs := make([]index.Owned, 0, n)
	for i, b := range data {
		switch {
		case b == 0:
		case i > 0 && data[i-1] == b:
			runs[len(runs)-1].Len++
		default:
			runs = append(runs, index.Owned{Extent: interval.Extent{Off: int64(i), Len: 1}, Rank: int(b) - 1})
		}
	}
	return runs
}

// Winner returns the rank whose marker the clean atom held, and false when
// atom is not a clean atom of the check.
func (r *Report) Winner(atom interval.Extent) (int, bool) {
	won := r.WinnerByRegion
	i := sort.Search(len(won), func(i int) bool { return won[i].Off >= atom.Off })
	if i == len(won) || won[i].Extent != atom {
		return 0, false
	}
	return won[i].Rank, true
}
