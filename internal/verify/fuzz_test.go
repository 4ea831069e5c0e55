package verify

import (
	"testing"

	"atomio/internal/interval"
)

// FuzzCheckBytes differentially tests the atom-based checker against the
// semantic definition of MPI atomicity: the outcome is serializable iff
// some permutation of the writers, applied last-wins, reproduces the file
// on every multi-covered byte. The atom checker factors that property into
// per-atom uniformity plus an acyclic winner order; the naive model checks
// it directly by enumerating permutations, so any factoring bug shows up
// as a disagreement.
//
// Input encoding: the first six bytes are three (offset, length) pairs
// defining one single-extent view per rank (length 0 = the rank writes
// nothing); the rest is the file image, with offsets past its end reading
// as zero (never written).
func FuzzCheckBytes(f *testing.F) {
	// Clean serial overlap.
	f.Add([]byte{0, 15, 5, 15, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	// One stale byte inside the overlap.
	f.Add([]byte{0, 15, 5, 15, 0, 0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	// Three-way overlap, file entirely rank 2.
	f.Add([]byte{0, 12, 4, 12, 8, 12, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	// Overlap past the end of the image (implicit zeros).
	f.Add([]byte{0, 30, 10, 30, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		get := func(i int) int64 {
			if i < len(in) {
				return int64(in[i])
			}
			return 0
		}
		views := make([]interval.List, 3)
		for r := 0; r < 3; r++ {
			if l := get(2*r + 1); l > 0 {
				views[r] = interval.List{{Off: get(2 * r), Len: l}}
			}
		}
		var data []byte
		if len(in) > 6 {
			data = in[6:]
		}

		rep := CheckBytes(data, views)
		want := naiveSerializable(data, views)
		if rep.Atomic() != want {
			t.Fatalf("checker disagrees with permutation model: Atomic=%v want %v\nviews=%v\nreport=%+v",
				rep.Atomic(), want, views, rep)
		}
		if got := multiCoveredBytes(views); rep.OverlappedBytes != got {
			t.Fatalf("OverlappedBytes=%d, per-byte count=%d (views %v)", rep.OverlappedBytes, got, views)
		}
	})
}

// naiveSerializable is the brute-force oracle: try every permutation of the
// ranks as the serialization order and test whether last-wins application
// explains every byte that two or more writers cover.
func naiveSerializable(data []byte, views []interval.List) bool {
	at := func(pos int64) byte {
		if pos < int64(len(data)) {
			return data[pos]
		}
		return 0
	}
	var positions []int64
	for _, pos := range coveredPositions(views) {
		if coveringRanks(views, pos) >= 2 {
			positions = append(positions, pos)
		}
	}
	if len(positions) == 0 {
		return true
	}
	for _, perm := range permutations(len(views)) {
		ok := true
		for _, pos := range positions {
			last := -1
			for _, r := range perm {
				if listContains(views[r], pos) {
					last = r
				}
			}
			if at(pos) != Marker(last) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// coveredPositions returns every byte offset covered by at least one view.
func coveredPositions(views []interval.List) []int64 {
	var end int64
	for _, v := range views {
		for _, e := range v {
			if e.End() > end {
				end = e.End()
			}
		}
	}
	var out []int64
	for pos := int64(0); pos < end; pos++ {
		if coveringRanks(views, pos) > 0 {
			out = append(out, pos)
		}
	}
	return out
}

func coveringRanks(views []interval.List, pos int64) int {
	n := 0
	for _, v := range views {
		if listContains(v, pos) {
			n++
		}
	}
	return n
}

func listContains(l interval.List, pos int64) bool {
	for _, e := range l {
		if e.Off <= pos && pos < e.End() {
			return true
		}
	}
	return false
}

func multiCoveredBytes(views []interval.List) int64 {
	var n int64
	for _, pos := range coveredPositions(views) {
		if coveringRanks(views, pos) >= 2 {
			n++
		}
	}
	return n
}

// permutations returns all orderings of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for i := 0; i <= len(rest); i++ {
			p := make([]int, 0, n)
			p = append(p, rest[:i]...)
			p = append(p, n-1)
			p = append(p, rest[i:]...)
			out = append(out, p)
		}
	}
	return out
}
