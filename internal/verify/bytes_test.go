package verify

// The file-system-free side of the checker, which only tests drive:
// CheckBytes runs Check's algorithm over an in-memory image, and Winner
// reads one atom's verdict back out of a report.

import (
	"sort"

	"atomio/internal/interval"
)

// CheckBytes runs the atomicity check against an in-memory file image:
// offset o of the file is data[o], and offsets past the end read as zero
// (never written). It is the file-system-free checker adversarial tests
// and fuzzing drive with hand-constructed torn files.
func CheckBytes(data []byte, views []interval.List) *Report {
	rep, err := checkAtoms(func(off int64, buf []byte) error {
		clear(buf)
		if off < int64(len(data)) {
			copy(buf, data[off:])
		}
		return nil
	}, views)
	if err != nil {
		// The in-memory reader never fails.
		panic(err)
	}
	return rep
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
