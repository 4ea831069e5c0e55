// Package verify checks MPI atomicity on the simulated file system's actual
// bytes. Writers stamp their buffers with a per-rank marker; after a
// concurrent overlapping write, the file is partitioned into atoms (maximal
// regions covered by the same set of writers) and MPI atomicity requires
// every multi-writer atom to contain the marker of exactly one of its
// covering writers ("the results of the overlapped regions shall contain
// data from only one of the MPI processes", §2.2). Interleaved atoms are
// reported as violations — the non-atomic outcome of Figure 2.
package verify

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
)

// Marker returns the stamp byte of a rank. Zero is reserved for
// never-written bytes, so markers start at 1. With more than 255 ranks
// markers wrap and the checker loses precision; the paper's experiments use
// at most 16.
func Marker(rank int) byte { return byte(1 + rank%255) }

// Fill stamps buf with rank's marker by chunked copy, as bytes.Repeat
// fills: each copy doubles the stamped prefix.
func Fill(rank int, buf []byte) {
	if len(buf) > 0 {
		buf[0] = Marker(rank)
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n])
		}
	}
}

// Violation is one overlapped atom whose content breaks MPI atomicity.
type Violation struct {
	// Region is the offending atom.
	Region interval.Extent
	// Writers are the ranks whose views cover the atom.
	Writers []int
	// Markers are the distinct byte values found in the atom.
	Markers []byte
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("verify: region %v covered by ranks %v contains mixed markers %v",
		v.Region, v.Writers, v.Markers)
}

// OrderViolation reports that, although every atom was uniform, no single
// serialization order of the writers explains all the atoms' winners — the
// outcome of per-segment "atomicity" (paper §3.2: enforcing the atomicity
// of individual write() calls is not sufficient for MPI atomicity).
type OrderViolation struct {
	// Cycle is a sequence of ranks r0 -> r1 -> ... -> r0 where each rank
	// must serialize after the previous one according to some atom.
	Cycle []int
}

// Error renders the order violation.
func (v *OrderViolation) Error() string {
	return fmt.Sprintf("verify: atom winners admit no serialization order (cycle %v)", v.Cycle)
}

// Report summarizes an atomicity check.
type Report struct {
	// Atoms is the number of multi-writer atoms examined.
	Atoms int
	// OverlappedBytes is the total size of those atoms.
	OverlappedBytes int64
	// Violations are the atoms with interleaved content.
	Violations []Violation
	// OrderViolation is non-nil when the per-atom winners are
	// individually clean but mutually inconsistent (no serialization
	// order exists).
	OrderViolation *OrderViolation
	// WinnerByRegion records which covering rank's marker each clean atom
	// held, for policy checks such as highest-rank-wins: one run per clean
	// atom, in file order.
	WinnerByRegion []index.Owned
}

// Atomic reports whether the outcome satisfies MPI atomicity: every
// multi-writer atom holds one writer's data AND the winners are consistent
// with some total serialization order of the write requests.
func (r *Report) Atomic() bool { return len(r.Violations) == 0 && r.OrderViolation == nil }

// Check reads the overlapped atoms of the named file and verifies MPI
// atomicity, assuming rank i wrote Marker(i) everywhere in views[i]:
// every atom must hold exactly one covering writer's marker, and across
// atoms the winners must admit a total serialization order of the writers
// (each atom forces its winner to serialize after the atom's other
// writers; those constraints must be acyclic).
func Check(fs *pfs.FileSystem, name string, views []interval.List) (*Report, error) {
	return checkAtoms(func(off int64, buf []byte) error {
		return fs.SnapshotInto(name, off, buf)
	}, views)
}

// readWindow is how much of the file one read of the checker fetches: atoms
// arrive in file order, so a window read at one atom serves the atoms after
// it, and a store is consulted once per window instead of once per atom.
const readWindow = 1 << 20

// checkAtoms is the shared core of Check and CheckBytes: sweep the views
// into atoms — the regions covered by one constant set of two or more
// writers — read each through a window filled by read, and apply the
// single-marker and serialization-order rules. A clean atom allocates
// nothing: WinnerByRegion is sized for as many atoms as the views have
// extents.
func checkAtoms(read func(off int64, buf []byte) error, views []interval.List) (*Report, error) {
	rep := &Report{}
	after := make(map[int]map[int]bool) // winner -> set of ranks it must follow
	var (
		end     int64  // where the last view ends: no atom reaches past it
		extents int    // a hint for the number of atoms
		win     []byte // file bytes [winOff, winOff+len(win))
		winOff  int64
		err     error
	)
	for _, v := range views {
		end = max(end, v.Span().End())
		extents += len(v)
	}
	index.SweepAtoms(views, func(atom interval.Extent, writers []int) bool {
		rep.Atoms++
		rep.OverlappedBytes += atom.Len
		if atom.End() > winOff+int64(len(win)) {
			n := max(atom.Len, min(readWindow, end-atom.Off))
			win, winOff = slices.Grow(win[:0], int(n))[:n], atom.Off
			if err = read(winOff, win); err != nil {
				return false
			}
		}
		data := win[atom.Off-winOff : atom.End()-winOff]
		winner := -1
		if bytes.Equal(data[1:], data[:len(data)-1]) { // every byte is data[0]
			for _, w := range writers {
				if Marker(w) == data[0] {
					winner = w
					break
				}
			}
		}
		if winner < 0 {
			rep.Violations = append(rep.Violations, Violation{
				Region:  atom,
				Writers: slices.Clone(writers),
				Markers: distinctBytes(data),
			})
			return true
		}
		if rep.WinnerByRegion == nil {
			rep.WinnerByRegion = make([]index.Owned, 0, extents)
		}
		rep.WinnerByRegion = append(rep.WinnerByRegion, index.Owned{Extent: atom, Rank: winner})
		if after[winner] == nil {
			after[winner] = make(map[int]bool)
		}
		for _, w := range writers {
			if w != winner {
				after[winner][w] = true
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if cycle := findCycle(after); cycle != nil {
		rep.OrderViolation = &OrderViolation{Cycle: cycle}
	}
	return rep, nil
}

// findCycle looks for a cycle in the "must serialize after" digraph and
// returns it (ending where it starts), or nil.
func findCycle(after map[int]map[int]bool) []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int]int)
	var stack []int
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		stack = append(stack, u)
		for v := range after[u] {
			switch color[v] {
			case grey:
				// Found: slice the stack from v's position.
				for i, w := range stack {
					if w == v {
						cycle = append(append([]int(nil), stack[i:]...), v)
						return true
					}
				}
			case white:
				if dfs(v) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	nodes := make([]int, 0, len(after))
	for u := range after {
		nodes = append(nodes, u)
	}
	sort.Ints(nodes)
	for _, u := range nodes {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// distinctBytes returns the sorted distinct values in data (capped at 8,
// enough for a diagnostic).
func distinctBytes(data []byte) []byte {
	var seen [256]bool
	var out []byte
	for _, b := range data {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
			if len(out) == 8 {
				break
			}
		}
	}
	slices.Sort(out)
	return out
}
