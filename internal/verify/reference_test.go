package verify

// The reference Check is held to: it paints each byte's owner from the
// file's write records, one record after another in log order, cuts the
// views into atoms at every endpoint (atomsByCuts), and checks each atom
// against the painted owner runs, keeping each clean atom's extent beside
// its winner. It shares no sweep with Check.

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
	"atomio/internal/sim/fault"
)

// referenceReport is what checkAtoms finds: a Report, and the atom each
// winner won.
type referenceReport struct {
	*Report
	won []index.Owned
}

// painted returns the owner runs of the named file: an array of each
// byte's writer, painted from the file's write records in log order — each
// run of a record over whatever earlier records left — read back as
// maximal runs of one writer.
func painted(t *testing.T, fs *pfs.FileSystem, name string) []index.Owned {
	t.Helper()
	var owner []int // each byte's writer plus one; 0 for never written
	err := fs.EachRecord(name, func(r index.Record) {
		for k, e := range r.Ext {
			w := r.Writer
			if r.Writers != nil {
				w = r.Writers[k]
			}
			if grow := int(e.End()) - len(owner); grow > 0 {
				owner = append(owner, make([]int, grow)...)
			}
			for o := e.Off; o < e.End(); o++ {
				owner[o] = w + 1
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var runs []index.Owned
	for o, w := range owner {
		if n := len(runs) - 1; w > 0 && n >= 0 && runs[n].Rank == w-1 && runs[n].End() == int64(o) {
			runs[n].Len++
		} else if w > 0 {
			runs = append(runs, index.Owned{Extent: interval.Extent{Off: int64(o), Len: 1}, Rank: w - 1})
		}
	}
	return runs
}

// checkAtoms applies the one-writer and serialization-order rules to each
// atom of views against owners, the file's owner runs in file order.
func checkAtoms(owners []index.Owned, views []interval.List) referenceReport {
	rep := referenceReport{Report: &Report{}}
	after := make(map[int]map[int]bool) // winner -> set of ranks it must follow
	next := 0                           // the first run that ends past the atoms swept so far
	for _, a := range atomsByCuts(views) {
		atom, writers := a.region, a.writers
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

// logShape is what one randomLog drew.
type logShape struct {
	cached, faulted, aggregated, batched bool
}

// randomLog writes views to a fresh storing file system the way a broken
// strategy might: every rank's extents in calls of one to all of them,
// the calls of all ranks shuffled together, some extents dropped, some
// written twice, and stray batches naming writers in and out of the views.
// Aggregators write runs of touching extents, each named for a rank: a
// view's own extents cut into pieces, or strays. A third of the file
// systems cache write-behind and flush at random, so a flush stores several
// logged batches; a fifth crash a server for a window of the run, so some
// writes and flushes lose the pieces routed to it. It returns the file
// system and what it drew.
func randomLog(t *testing.T, r *rand.Rand, views []interval.List) (*pfs.FileSystem, logShape) {
	t.Helper()
	var shape logShape
	cfg := pfs.Config{
		Servers: 1 + r.Intn(3), StripeSize: 8, StoreData: true,
		ServerModel: sim.LinearCost{Latency: sim.Microsecond},
		ClientModel: sim.LinearCost{Latency: sim.Microsecond},
	}
	if shape.cached = r.Intn(3) == 0; shape.cached {
		cfg.Cache = pfs.CacheConfig{WriteBehind: true}
	}
	fs := fsOf(cfg)
	if shape.faulted = r.Intn(5) == 0; shape.faulted {
		from := sim.VTime(r.Intn(20)) * sim.Microsecond
		fs.SetFault(fault.New(fault.Script{Events: []fault.Event{
			{Kind: fault.ServerCrash, Server: r.Intn(cfg.Servers), From: from, Until: from + sim.VTime(1+r.Intn(30))*sim.Microsecond},
		}}))
	}
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
		switch r.Intn(5) {
		case 0: // the whole view in one call, as it stands
			calls = append(calls, call{rank, pfs.Batch{Ext: v}})
			continue
		case 1: // an aggregator's: the view cut into touching pieces, each named for the rank
			var b pfs.Batch
			for _, e := range v.Normalize() {
				cut := e.Off + 1 + r.Int63n(e.Len) // the second piece may be empty
				b.Ext = append(b.Ext, ext(e.Off, cut-e.Off), ext(cut, e.End()-cut))
				b.Writers = append(b.Writers, rank, rank)
			}
			calls = append(calls, call{r.Intn(len(clients)), b})
			shape.aggregated = true
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
		off := int64(r.Intn(80))
		for n := 1 + r.Intn(3); n > 0; n-- {
			e := ext(off, 1+int64(r.Intn(12)))
			b.Ext = append(b.Ext, e)
			b.Writers = append(b.Writers, r.Intn(len(views)+1))
			if off = int64(r.Intn(80)); r.Intn(2) == 0 {
				off = e.End() // touching: an aggregator's run of several writers
			}
		}
		calls = append(calls, call{len(views), b})
	}
	r.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	logged := make([]int, len(clients)) // each client's batches since its last flush
	for _, c := range calls {
		clients[c.rank].Write(c.b)
		logged[c.rank]++
		if shape.cached && r.Intn(3) == 0 {
			shape.batched = shape.batched || logged[c.rank] > 1
			clients[c.rank].Sync()
			logged[c.rank] = 0
		}
	}
	for rank, c := range clients {
		shape.batched = shape.batched || shape.cached && logged[rank] > 1
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fs, shape
}

// TestCheckMatchesPaintedReference holds Check — one sweep over the write
// records and the views — to the reference on random logs: written
// straight, through write-behind flushes of several batches, by aggregators
// naming writers on touching extents, and under server crashes. Every atom
// count, violation (region, writers, ranks found, runs), order violation
// and winner must be equal, over torn, unwritten, cyclic and clean
// outcomes alike.
func TestCheckMatchesPaintedReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var torn, cyclic, clean int
	var drew logShape
	for round := 0; round < 1500; round++ {
		views := randomViews(r, 2+r.Intn(7))
		fs, shape := randomLog(t, r, views)
		drew.cached = drew.cached || shape.cached
		drew.faulted = drew.faulted || shape.faulted
		drew.aggregated = drew.aggregated || shape.aggregated
		drew.batched = drew.batched || shape.batched
		got, err := Check(fs, "f", views)
		if err != nil {
			t.Fatal(err)
		}
		owners := painted(t, fs, "f")
		want := checkAtoms(owners, views)
		where := fmt.Sprintf("round %d (%+v): views %v\nowners %v", round, shape, views, owners)
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
		ranks := make([]int, len(want.won))
		for i, w := range want.won {
			ranks[i] = w.Rank
		}
		if got.Outcome != outcome(ranks...) {
			t.Fatalf("%s\noutcome %x, want that of winners %v", where, got.Outcome, want.won)
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
	if drew != (logShape{true, true, true, true}) {
		t.Fatalf("the logs drew %+v: a shape is never tested", drew)
	}
}
