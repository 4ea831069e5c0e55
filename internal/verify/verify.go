// Package verify checks MPI atomicity on who wrote the simulated file
// system's bytes. The store keeps, with every write, the rank whose data it
// carries (pfs.FileSystem.EachOwner); after a concurrent overlapping write the
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
	// Winners records which covering rank's data each clean atom held, for
	// policy checks such as highest-rank-wins: one rank per clean atom in
	// file order — the views' atoms (index.Atoms) less the Violations.
	Winners []int32
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
// acyclic). It merges the owner runs the store streams with the atoms a
// cursor over the views yields, both in file order: O(P) state.
func Check(fs *pfs.FileSystem, name string, views []interval.List) (*Report, error) {
	c := newChecker(views)
	if err := fs.EachOwner(name, c.run); err != nil {
		return nil, err
	}
	return c.finish(), nil
}

// checker merges owner runs, pushed in file order, with the atoms it
// pulls from a cursor. It holds one atom at a time: the first one that
// ends past the runs seen so far.
type checker struct {
	rep     *Report
	atoms   *index.Atoms
	atom    interval.Extent // the pending atom, empty when the atoms are exhausted
	writers []int           // the pending atom's writers, the cursor's
	torn    *Violation      // the pending atom's violation, once a run shows it torn
	at      int64           // the pending atom's first byte no run has accounted for
	views   []interval.List // the ranks' views
	after   [][]int32       // row w: the writers w serializes after, ascending and once each; nil before the first clean atom
}

func newChecker(views []interval.List) *checker {
	c := &checker{rep: &Report{}, atoms: index.NewAtoms(views), views: views}
	c.pull()
	return c
}

// firstWin sizes Winners for an atom per view extent and every row of after
// for two writers, the column-wise degree: a check with no clean atom never.
func (c *checker) firstWin() {
	slab, extents := make([]int32, 2*len(c.views)), 0
	c.after = make([][]int32, len(c.views))
	for w, v := range c.views {
		c.after[w], extents = slab[2*w:2*w:2*w+2], extents+len(v)
	}
	c.rep.Winners = make([]int32, 0, extents)
}

// pull makes the cursor's next atom the pending one.
func (c *checker) pull() {
	atom, writers, ok := c.atoms.Next()
	c.atom, c.writers, c.torn, c.at = atom, writers, nil, atom.Off
	if ok {
		c.rep.Atoms++
		c.rep.OverlappedBytes += atom.Len
	}
}

// run takes rank's owner run, the next in file order, and settles every atom
// starting before its end: one inside one run of one of its writers is
// clean, won by that writer, who serializes after the others; any other is torn.
func (c *checker) run(run interval.Extent, rank int) {
	for !c.atom.Empty() && c.atom.Off < run.End() {
		switch {
		case c.torn == nil && run.Off <= c.atom.Off && run.End() >= c.atom.End() && slices.Contains(c.writers, rank):
			if c.after == nil {
				c.firstWin()
			}
			c.rep.Winners = append(c.rep.Winners, int32(rank))
			row := c.after[rank]
			for _, w := range c.writers {
				if at, found := slices.BinarySearch(row, int32(w)); w != rank && !found {
					row = slices.Insert(row, at, int32(w))
				}
			}
			c.after[rank] = row
		case run.Off >= c.atom.End(): // the atom's tail was never written
			c.tear()
		default:
			c.part(run.Intersect(c.atom), rank)
			if run.End() < c.atom.End() {
				return // the atom goes on past this run
			}
			c.tear()
		}
		c.pull()
	}
}

// part records that the pending atom, which is torn, holds rank's data
// over part, and nobody's between the last part recorded and part: the
// distinct ranks in Found, the pieces in Runs, at most 8 of each.
func (c *checker) part(part interval.Extent, rank int) {
	if c.torn == nil {
		c.torn = &Violation{Region: c.atom, Writers: slices.Clone(c.writers)}
	}
	v, gap := c.torn, interval.Extent{Off: c.at, Len: part.Off - c.at}
	for _, o := range [...]index.Owned{{Extent: gap, Rank: -1}, {Extent: part, Rank: rank}} {
		if o.Len > 0 && len(v.Found) < 8 && !slices.Contains(v.Found, o.Rank) {
			v.Found = append(v.Found, o.Rank)
		}
		if o.Len > 0 && len(v.Runs) < 8 {
			v.Runs = append(v.Runs, o)
		}
	}
	c.at = max(c.at, part.End())
}

// tear reports the pending atom as a violation, its bytes past the last
// part recorded never written.
func (c *checker) tear() {
	c.part(interval.Extent{Off: c.atom.End()}, -1)
	slices.Sort(c.torn.Found)
	c.rep.Violations = append(c.rep.Violations, *c.torn)
}

// finish settles the atoms no run reaches — wholly or partly never
// written — and the serialization order of the winners.
func (c *checker) finish() *Report {
	for !c.atom.Empty() {
		c.tear()
		c.pull()
	}
	if cycle := findCycle(c.after); cycle != nil {
		c.rep.OrderViolation = &OrderViolation{Cycle: cycle}
	}
	return c.rep
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
