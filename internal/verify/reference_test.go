package verify

// The checker Check replaced, kept as the reference the streamed merge is
// held to: it materializes the file's owner runs (pfs.FileSystem.Owners),
// walks the atoms with one cursor into that list, and keeps each clean
// atom's extent beside its winner.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
	"atomio/internal/sim"
)

// referenceReport is what checkAtoms finds: a Report, and the atom each
// winner won.
type referenceReport struct {
	*Report
	won []index.Owned
}

// checkAtoms applies the one-writer and serialization-order rules to each
// atom of views against owners, the file's owner runs in file order.
func checkAtoms(owners []index.Owned, views []interval.List) referenceReport {
	rep := referenceReport{Report: &Report{}}
	after := make(map[int]map[int]bool) // winner -> set of ranks it must follow
	next := 0                           // the first run that ends past the atoms swept so far
	atoms := index.NewAtoms(views)
	for atom, writers, ok := atoms.Next(); ok; atom, writers, ok = atoms.Next() {
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
			continue
		}
		rep.won = append(rep.won, index.Owned{Extent: atom, Rank: winner})
		if after[winner] == nil {
			after[winner] = make(map[int]bool)
		}
		for _, w := range writers {
			if w != winner {
				after[winner][w] = true
			}
		}
	}
	rows := make([][]int32, len(views))
	for u, vs := range after {
		for v := range vs {
			rows[u] = append(rows[u], int32(v))
		}
		slices.Sort(rows[u])
	}
	if cycle := findCycle(rows); cycle != nil {
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

// clipRuns returns the first 8 pieces of region in file order, each clipped
// from the owner run that holds it or, with rank -1, from a gap between
// runs.
func clipRuns(owners []index.Owned, region interval.Extent) []index.Owned {
	var out []index.Owned
	add := func(e interval.Extent, rank int) {
		if len(out) < 8 && !e.Empty() {
			out = append(out, index.Owned{Extent: e, Rank: rank})
		}
	}
	at := region.Off
	for _, run := range owners {
		if part := run.Intersect(region); !part.Empty() {
			add(interval.Extent{Off: at, Len: part.Off - at}, -1)
			add(part, run.Rank)
			at = part.End()
		}
	}
	add(interval.Extent{Off: at, Len: region.End() - at}, -1)
	return out
}

// randomLog writes views to a fresh storing file system the way a broken
// strategy might: every rank's extents in calls of one to all of them,
// the calls of all ranks shuffled together, some extents dropped, some
// written twice, and stray batches naming writers in and out of the views.
// It returns the file system.
func randomLog(t *testing.T, r *rand.Rand, views []interval.List) *pfs.FileSystem {
	t.Helper()
	fs := pfs.MustNew(pfs.Config{Servers: 1 + r.Intn(3), StripeSize: 8, StoreData: true})
	clients := make([]*pfs.Client, len(views)+1) // the last one writes strays
	for rank := range clients {
		c, err := fs.Open("f", rank, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		clients[rank] = c
	}
	type call struct {
		rank int
		b    pfs.Batch
	}
	var calls []call
	for rank, v := range views {
		if r.Intn(4) == 0 { // the whole view in one call, as it stands
			calls = append(calls, call{rank, pfs.Batch{Ext: v}})
			continue
		}
		for _, e := range v.Normalize() {
			for k := r.Intn(5); k >= 0; k-- {
				switch r.Intn(8) {
				case 0: // dropped: the bytes keep whatever else lands there
				case 1: // half of it
					calls = append(calls, call{rank, pfs.Batch{Ext: interval.List{{Off: e.Off + e.Len/2, Len: e.Len - e.Len/2}}}})
				default:
					calls = append(calls, call{rank, pfs.Batch{Ext: interval.List{e}}})
				}
				if r.Intn(3) > 0 {
					break
				}
			}
		}
	}
	for k := r.Intn(3); k > 0; k-- {
		var b pfs.Batch
		for n := 1 + r.Intn(3); n > 0; n-- {
			b.Ext = append(b.Ext, ext(int64(r.Intn(80)), 1+int64(r.Intn(12))))
			b.Writers = append(b.Writers, r.Intn(len(views)+1))
		}
		calls = append(calls, call{len(views), b})
	}
	r.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	for _, c := range calls {
		clients[c.rank].Write(c.b)
	}
	return fs
}

// TestStreamedCheckMatchesReference holds Check — owner runs streamed by
// the store, atoms pulled from a cursor, one merge — to the materializing
// reference on random logs: every atom count, violation (region, writers,
// ranks found), order violation and winner must be equal, over torn,
// unwritten, cyclic and clean outcomes alike.
func TestStreamedCheckMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var torn, cyclic, clean int
	for round := 0; round < 1500; round++ {
		views := randomViews(r, 2+r.Intn(7))
		fs := randomLog(t, r, views)
		got, err := Check(fs, "f", views)
		if err != nil {
			t.Fatal(err)
		}
		owners, err := fs.Owners("f")
		if err != nil {
			t.Fatal(err)
		}
		want := checkAtoms(owners, views)
		where := fmt.Sprintf("round %d: views %v\nowners %v", round, views, owners)
		if got.Atoms != want.Atoms || got.OverlappedBytes != want.OverlappedBytes {
			t.Fatalf("%s\n%d atoms of %d bytes, want %d of %d", where, got.Atoms, got.OverlappedBytes, want.Atoms, want.OverlappedBytes)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s\nviolations %+v\nwant %+v", where, got.Violations, want.Violations)
		}
		for i, v := range got.Violations {
			w := want.Violations[i]
			if v.Region != w.Region || !slices.Equal(v.Writers, w.Writers) || !slices.Equal(v.Found, w.Found) {
				t.Fatalf("%s\nviolation %d: %+v\nwant %+v", where, i, v, w)
			}
			if runs := clipRuns(owners, v.Region); !slices.Equal(v.Runs, runs) {
				t.Fatalf("%s\nviolation %d: runs %v, want %v", where, i, v.Runs, runs)
			}
		}
		if !reflect.DeepEqual(got.OrderViolation, want.OrderViolation) {
			t.Fatalf("%s\norder violation %+v, want %+v", where, got.OrderViolation, want.OrderViolation)
		}
		if won := got.won(views); !slices.Equal(won, want.won) {
			t.Fatalf("%s\nwinners %v\nwant %v", where, won, want.won)
		}
		switch {
		case len(want.Violations) > 0:
			torn++
		case want.OrderViolation != nil:
			cyclic++
		case want.Atoms > 0:
			clean++
		}
	}
	t.Logf("%d torn, %d cyclic, %d clean outcomes", torn, cyclic, clean)
	if torn < 100 || cyclic < 20 || clean < 100 {
		t.Fatalf("%d torn, %d cyclic, %d clean outcomes: the logs do not reach every verdict", torn, cyclic, clean)
	}
}
