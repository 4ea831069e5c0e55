// Package verify checks MPI atomicity on who wrote the simulated file
// system's bytes. The store keeps, with every write, the rank whose data it
// carries (pfs.FileSystem.EachRecord); after a concurrent overlapping write the
// file is partitioned into atoms (maximal regions covered by the same set of
// writers) and MPI atomicity requires every multi-writer atom to hold the
// data of exactly one of its covering writers ("the results of the
// overlapped regions shall contain data from only one of the MPI
// processes", §2.2). Interleaved atoms are reported as violations — the
// non-atomic outcome of Figure 2.
package verify

import (
	"fmt"
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
	// Runs are the atom's owner runs clipped to it, in file order, with
	// rank -1 for bytes never written (the first 8): where it tore.
	Runs []index.Owned
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("verify: region %v covered by ranks %v holds data of ranks %v in runs %v",
		v.Region, v.Writers, v.Found, v.Runs)
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
	// Outcome hashes which covering rank's data each clean atom held (the
	// views' atoms less the Violations): 64-bit FNV-1a over their ranks in
	// file order, four little-endian bytes each. Runs of a cell share its
	// atoms, so equal winners give equal outcomes; a test that wants the
	// ranks recomputes them from the records.
	Outcome uint64
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
// acyclic). One sweep merges the file's write records with the views
// (index.Sweep) and settles each atom as it ends: O(R + V) state.
func Check(fs *pfs.FileSystem, name string, views []interval.List) (*Report, error) {
	var log []index.Record
	if err := fs.EachRecord(name, func(r index.Record) { log = append(log, r) }); err != nil {
		return nil, err
	}
	return check(log, views), nil
}

// check runs the sweep over log and views and settles its atoms.
func check(log []index.Record, views []interval.List) *Report {
	c := &checker{rep: &Report{Outcome: 14695981039346656037}, ranks: len(views)} // FNV-1a's offset basis
	index.Sweep(log, views, c.piece)
	if c.atom.Len > 0 {
		c.settle()
	}
	if cycle := findCycle(c.after); cycle != nil {
		c.rep.OrderViolation = &OrderViolation{Cycle: cycle}
	}
	return c.rep
}

// checker assembles atoms from the sweep's pieces, one at a time: the
// pending atom grows while pieces of two or more views follow it uncut.
type checker struct {
	rep     *Report
	atom    interval.Extent // the pending atom so far; empty when there is none
	writers []int32         // the pending atom's views
	owner   int             // the rank whose run holds the pending atom so far, while it is clean
	torn    bool            // the pending atom is torn: tear is its violation so far
	tear    Violation
	ranks   int       // the number of views, one row of after each
	after   [][]int32 // row w: the writers w serializes after, ascending and once each; nil before the first clean atom
}

// piece takes the sweep's next piece. A cut, or fewer than two views, ends
// the pending atom; a piece of two or more views starts an atom or extends
// it. The atom stays clean while one run of one of its writers holds all of
// it; the first piece of another owner tears it.
func (c *checker) piece(p *index.Piece) {
	if c.atom.Len > 0 && (p.Cut || len(p.Views) < 2) {
		c.settle()
	}
	if len(p.Views) < 2 {
		return
	}
	if c.atom.Len == 0 {
		c.atom, c.owner, c.torn = p.Extent, p.Owner, false
		c.writers = append(c.writers[:0], p.Views...)
		if p.Owner >= 0 && slices.Contains(c.writers, int32(p.Owner)) {
			return
		}
	} else if c.atom.Len += p.Len; !c.torn && p.Owner == c.owner {
		return
	}
	if !c.torn {
		c.tearAt(p.Off)
	}
	c.run(p.Extent, p.Owner)
}

// tearAt makes the pending atom a violation: its bytes before off were one
// run of the owner so far.
func (c *checker) tearAt(off int64) {
	c.torn, c.tear = true, Violation{Writers: make([]int, len(c.writers))}
	for i, w := range c.writers {
		c.tear.Writers[i] = int(w)
	}
	slices.Sort(c.tear.Writers)
	c.run(interval.Extent{Off: c.atom.Off, Len: off - c.atom.Off}, c.owner)
}

// run records that the torn pending atom holds rank's data over part, -1
// for bytes never written: the distinct ranks in Found, the runs in Runs —
// pieces of one rank that touch make one — at most 8 of each.
func (c *checker) run(part interval.Extent, rank int) {
	v := &c.tear
	if part.Empty() {
		return
	}
	if len(v.Found) < 8 && !slices.Contains(v.Found, rank) {
		v.Found = append(v.Found, rank)
	}
	if n := len(v.Runs) - 1; n >= 0 && v.Runs[n].Rank == rank && v.Runs[n].End() == part.Off {
		v.Runs[n].Len += part.Len
	} else if n < 7 {
		v.Runs = append(v.Runs, index.Owned{Extent: part, Rank: rank})
	}
}

// settle ends the pending atom: a torn one is a violation; a clean one is
// won by its owner, who serializes after its other writers.
func (c *checker) settle() {
	c.rep.Atoms++
	c.rep.OverlappedBytes += c.atom.Len
	if c.torn {
		c.tear.Region = c.atom
		slices.Sort(c.tear.Found)
		c.rep.Violations = append(c.rep.Violations, c.tear)
	} else {
		if c.after == nil { // the first clean atom sizes every row for two writers, the column-wise degree
			slab := make([]int32, 2*c.ranks)
			c.after = make([][]int32, c.ranks)
			for w := range c.after {
				c.after[w] = slab[2*w : 2*w : 2*w+2]
			}
		}
		for i := 0; i < 32; i += 8 { // one FNV-1a step per byte of the owner
			c.rep.Outcome = (c.rep.Outcome ^ uint64(uint32(c.owner)>>i&0xff)) * 1099511628211
		}
		row := &c.after[c.owner]
		for _, w := range c.writers {
			if w == int32(c.owner) {
				continue
			}
			if at, found := slices.BinarySearch(*row, w); !found {
				*row = slices.Insert(*row, at, w)
			}
		}
	}
	c.atom = interval.Extent{}
}

// findCycle looks for a cycle in the "must serialize after" digraph, row u
// listing u's out-neighbours ascending, and returns it (ending where it
// starts), or nil. It walks nodes and edges in ascending order, so the
// cycle it reports is the same on every run.
func findCycle(after [][]int32) []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int8, len(after))
	var stack []int
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		stack = append(stack, u)
		for _, v := range after[u] {
			switch color[v] {
			case grey:
				// Found: slice the stack from v's position.
				for i, w := range stack {
					if w == int(v) {
						cycle = append(append([]int(nil), stack[i:]...), w)
						return true
					}
				}
			case white:
				if dfs(int(v)) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	for u := range after {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}
