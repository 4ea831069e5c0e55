package verify

// The file-system-free side of the checker, which only tests drive:
// CheckBytes runs Check's algorithm over an in-memory image of marker
// bytes, and won pairs a report's winners with the atoms they won.

import (
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
	n := 0
	markerRuns(data, func(interval.Extent, int) { n++ })
	// One record: the runs, each its marker's rank's.
	image := index.Record{Ext: make(interval.List, 0, n), Writers: make([]int, 0, n)}
	markerRuns(data, func(run interval.Extent, rank int) {
		image.Ext, image.Writers = append(image.Ext, run), append(image.Writers, rank)
	})
	return check([]index.Record{image}, views)
}

// markerRuns visits the owner runs of an image of marker bytes in file
// order: maximal runs of one nonzero byte b, owned by rank b-1.
func markerRuns(data []byte, visit func(run interval.Extent, rank int)) {
	start := 0 // the first byte of the run at i
	for i := 1; i <= len(data); i++ {
		if i < len(data) && data[i] == data[start] {
			continue
		}
		if data[start] != 0 {
			visit(interval.Extent{Off: int64(start), Len: int64(i - start)}, int(data[start])-1)
		}
		start = i
	}
}

// won pairs each clean atom of views — the atoms less the report's
// violations — with the rank that won it, in file order.
func (r *Report) won(views []interval.List) []index.Owned {
	var won []index.Owned
	torn := r.Violations
	for _, a := range atomsByCuts(views) {
		if len(torn) > 0 && torn[0].Region == a.region {
			torn = torn[1:]
			continue
		}
		won = append(won, index.Owned{Extent: a.region, Rank: int(r.Winners[len(won)])})
	}
	return won
}

// winner returns the rank whose data the clean atom of views held, and
// false when atom is not a clean atom of the check.
func (r *Report) winner(views []interval.List, atom interval.Extent) (int, bool) {
	for _, w := range r.won(views) {
		if w.Extent == atom {
			return w.Rank, true
		}
	}
	return 0, false
}
