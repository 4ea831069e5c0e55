package verify

// The file-system-free side of the checker, which only tests drive:
// CheckBytes runs Check's algorithm over an in-memory image of marker
// bytes, and outcome hashes the winners a report's Outcome should name.

import (
	"encoding/binary"
	"hash/fnv"

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
	return check(imageLog(data), views)
}

// imageLog is the write log of an image of marker bytes: one record, its
// owner runs, each its marker's rank's.
func imageLog(data []byte) []index.Record {
	n := 0
	markerRuns(data, func(interval.Extent, int) { n++ })
	image := index.Record{Ext: make(interval.List, 0, n), Writers: make([]int, 0, n)}
	markerRuns(data, func(run interval.Extent, rank int) {
		image.Ext, image.Writers = append(image.Ext, run), append(image.Writers, rank)
	})
	return []index.Record{image}
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

// outcome is the Report.Outcome of clean atoms won by ranks, in file order,
// hashed by the standard library's FNV-1a.
func outcome(ranks ...int) uint64 {
	h := fnv.New64a()
	for _, rank := range ranks {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(rank)))
	}
	return h.Sum64()
}
