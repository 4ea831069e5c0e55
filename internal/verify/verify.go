// Package verify checks MPI atomicity on who wrote the simulated file
// system's bytes. The store keeps, with every write, the rank whose data it
// carries (pfs.FileSystem.Owners); after a concurrent overlapping write the
// file is partitioned into atoms (maximal regions covered by the same set of
// writers) and MPI atomicity requires every multi-writer atom to hold the
// data of exactly one of its covering writers ("the results of the
// overlapped regions shall contain data from only one of the MPI
// processes", §2.2). Interleaved atoms are reported as violations — the
// non-atomic outcome of Figure 2.
package verify

import (
	"fmt"
	"maps"
	"slices"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
)

// Marker returns the stamp byte of a rank. Zero is reserved for
// never-written bytes, so markers start at 1. Check does not read them — it
// takes each byte's writer from the store — but a buffer stamped with them
// makes a snapshot show who wrote it.
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
	// Found are the distinct ranks whose data the atom holds, ascending,
	// with -1 for bytes never written (at most 8, enough for a diagnostic).
	Found []int
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("verify: region %v covered by ranks %v holds data of ranks %v",
		v.Region, v.Writers, v.Found)
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
	// WinnerByRegion records which covering rank's data each clean atom
	// held, for policy checks such as highest-rank-wins: one run per clean
	// atom, in file order.
	WinnerByRegion []index.Owned
}

// Atomic reports whether the outcome satisfies MPI atomicity: every
// multi-writer atom holds one writer's data AND the winners are consistent
// with some total serialization order of the write requests.
func (r *Report) Atomic() bool { return len(r.Violations) == 0 && r.OrderViolation == nil }

// Check verifies MPI atomicity of the named file against the views the
// ranks wrote, views[i] being rank i's: every atom must hold the data of
// exactly one covering writer — one owner run over all of it, of a rank
// among its writers — and across atoms the winners must admit a total
// serialization order of the writers (each atom forces its winner to
// serialize after the atom's other writers; those constraints must be
// acyclic).
func Check(fs *pfs.FileSystem, name string, views []interval.List) (*Report, error) {
	owners, err := fs.Owners(name)
	if err != nil {
		return nil, err
	}
	return checkAtoms(owners, views), nil
}

// checkAtoms is the core of Check: sweep the views into atoms — the regions
// covered by one constant set of two or more writers — and apply the
// one-writer and serialization-order rules to each against owners, the
// file's owner runs in file order. Atoms arrive in file order too, so one
// cursor walks the runs. A clean atom allocates nothing: WinnerByRegion is
// sized for as many atoms as the views have extents.
func checkAtoms(owners []index.Owned, views []interval.List) *Report {
	rep := &Report{}
	after := make(map[int]map[int]bool) // winner -> set of ranks it must follow
	extents := 0                        // a hint for the number of atoms
	for _, v := range views {
		extents += len(v)
	}
	next := 0 // the first run that ends past the atoms swept so far
	index.SweepAtoms(views, func(atom interval.Extent, writers []int) bool {
		rep.Atoms++
		rep.OverlappedBytes += atom.Len
		for next < len(owners) && owners[next].End() <= atom.Off {
			next++
		}
		winner := -1
		if next < len(owners) {
			if run := owners[next]; run.Off <= atom.Off && run.End() >= atom.End() && slices.Contains(writers, run.Rank) {
				winner = run.Rank
			}
		}
		if winner < 0 {
			rep.Violations = append(rep.Violations, Violation{
				Region:  atom,
				Writers: slices.Clone(writers),
				Found:   found(owners[next:], atom),
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
	if cycle := findCycle(after); cycle != nil {
		rep.OrderViolation = &OrderViolation{Cycle: cycle}
	}
	return rep
}

// found returns the distinct ranks of the runs that hold a part of atom,
// ascending, with -1 first if a part is never written (capped at 8). runs
// starts with the first run that ends past atom's start.
func found(runs []index.Owned, atom interval.Extent) []int {
	var out []int
	add := func(rank int) {
		if len(out) < 8 && !slices.Contains(out, rank) {
			out = append(out, rank)
		}
	}
	at := atom.Off // the first byte not yet accounted for
	for _, run := range runs {
		if run.Off >= atom.End() {
			break
		}
		if run.Off > at {
			add(-1)
		}
		add(run.Rank)
		at = run.End()
	}
	if at < atom.End() {
		add(-1)
	}
	slices.Sort(out)
	return out
}

// findCycle looks for a cycle in the "must serialize after" digraph and
// returns it (ending where it starts), or nil. It walks nodes and edges in
// ascending order, so the cycle it reports is the same on every run.
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
		for _, v := range slices.Sorted(maps.Keys(after[u])) {
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
	for _, u := range slices.Sorted(maps.Keys(after)) {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}
