package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/workload"
)

// domainList lists every domain of d.
func domainList(d fileDomains) []interval.Extent {
	out := make([]interval.Extent, d.n)
	for i := range out {
		out[i] = d.at(i)
	}
	return out
}

func TestFileDomains(t *testing.T) {
	d := domainList(newFileDomains(ext(100, 10), 3))
	if want := []interval.Extent{ext(100, 3), ext(103, 3), ext(106, 4)}; !slices.Equal(d, want) {
		t.Fatalf("domains = %v, want %v", d, want)
	}
	// Disjoint, covering, ordered — for any split — and owner(off) is the
	// first domain ending after off, as a search over the list finds it.
	for _, tc := range []struct {
		span interval.Extent
		n    int
	}{{ext(0, 1), 4}, {ext(5, 3), 3}, {ext(7, 100), 7}, {ext(0, 1<<20), 1}, {ext(64, 640), 64}} {
		doms := newFileDomains(tc.span, tc.n)
		d := domainList(doms)
		var total int64
		for i, e := range d {
			total += e.Len
			if i > 0 && d[i-1].End() != e.Off {
				t.Fatalf("domains not contiguous: %v", d)
			}
		}
		if total != tc.span.Len {
			t.Fatalf("domains don't cover span %v: %v", tc.span, d)
		}
		for off := tc.span.Off; off < tc.span.End(); off++ {
			want := slices.IndexFunc(d, func(e interval.Extent) bool { return e.End() > off })
			if got := doms.owner(off); got != want {
				t.Fatalf("span %v / %d: owner(%d) = %d, want %d", tc.span, tc.n, off, got, want)
			}
		}
	}
}

// routeByDivision is the oracle of route: every extent of the request
// intersected with every domain, each piece's owner checked by division.
func routeByDivision(t *testing.T, req interval.List, domains fileDomains) []mpi.Part {
	var parts []mpi.Part
	for _, e := range req {
		for owner := range domains.n {
			ov := e.Intersect(domains.at(owner))
			if ov.Empty() {
				continue
			}
			if got := domains.owner(ov.Off); got != owner {
				t.Fatalf("piece %v lies in domain %d, owner(%d) = %d", ov, owner, ov.Off, got)
			}
			if n := len(parts); n == 0 || parts[n-1].Peer != owner {
				parts = append(parts, mpi.Part{Peer: owner})
			}
			parts[len(parts)-1].Size += pieceHeader + ov.Len
		}
	}
	return parts
}

// TestQuickRouteMatchesPerExtentDivision pins route's domain cursor to the
// per-extent oracle, parts allocated at their number, on random canonical
// requests inside spans shorter than P (every domain but the last empty),
// a few times P (extents that cross several domains) and far longer
// (extents that skip domains).
func TestQuickRouteMatchesPerExtentDivision(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(70)
		span := ext(r.Int63n(1000), 1+r.Int63n([]int64{int64(p), 4 * int64(p), 5000}[r.Intn(3)]))
		var req interval.List
		for range r.Intn(12) {
			off := span.Off + r.Int63n(span.Len)
			req = append(req, ext(off, min(1+r.Int63n(max(span.Len/3, 1)), span.End()-off)))
		}
		req = req.Normalize()
		domains := newFileDomains(span, p)
		got, want := route(req, domains), routeByDivision(t, req, domains)
		if !slices.Equal(got, want) || cap(got) != len(want) {
			t.Logf("P=%d span %v req %v: route %v (cap %d), want %v", p, span, req, got, cap(got), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// exchange runs both phases of a collective over views with n domain
// owners, as TwoPhase does but without the communicator: each rank routes
// its view, each owner is delivered the parts addressed to it in ascending
// sender order and merges its domain. It returns the domains and each
// owner's parts and batch.
func exchange(views []interval.List, n int, writers bool) (fileDomains, [][]mpi.Part, []pfs.Batch) {
	domains := newFileDomains(aggregateSpan(views), n)
	inbox := make([][]mpi.Part, n)
	for rank, v := range views {
		for _, pt := range route(v, domains) {
			inbox[pt.Peer] = append(inbox[pt.Peer], mpi.Part{Peer: rank, Size: pt.Size})
		}
	}
	batches := make([]pfs.Batch, n)
	for owner := range batches {
		batches[owner], _ = mergeDomain(inbox[owner], views, domains.at(owner), writers, math.MaxInt)
	}
	return domains, inbox, batches
}

// winnersCut is the oracle of the domain merge, the map it replaced: the
// collective's highest-rank-wins runs over every view, cut at the domain
// boundaries, in file order.
func winnersCut(views []interval.List, domains fileDomains) pfs.Batch {
	var b pfs.Batch
	index.EachWinner(views, func(run interval.Extent, rank int) {
		for owner := domains.owner(run.Off); owner < domains.n; owner++ {
			if cut := run.Intersect(domains.at(owner)); !cut.Empty() {
				b.Ext, b.Writers = append(b.Ext, cut), append(b.Writers, rank)
			}
		}
	})
	return b
}

// price is what route charges an owner for the bytes of req in domain: a
// header and the bytes of each piece.
func price(req interval.List, domain interval.Extent) int64 {
	var size int64
	for _, e := range req {
		if ov := e.Intersect(domain); !ov.Empty() {
			size += pieceHeader + ov.Len
		}
	}
	return size
}

// randCanonical draws a canonical view of up to k extents below limit.
func randCanonical(r *rand.Rand, k int, limit int64) interval.List {
	var l interval.List
	for range r.Intn(k + 1) {
		l = append(l, ext(r.Int63n(limit), 1+r.Int63n(max(limit/8, 1))))
	}
	return l.Normalize()
}

// TestDomainMergeMatchesGlobalWinners pins the two-phase merge: with every
// owner resolving only its own domain from the shared views, the owners'
// batches — extents and writers — concatenate to the collective's winners
// map cut at the domain boundaries; a file that keeps no writers gets the
// canonical form of those extents alone, no writers named, which a
// write-behind flush sends as it stands; each owner hears from exactly the ranks whose views
// reach into its domain, priced a header and the bytes per piece; and views
// that cover nothing leave an empty span, which TwoPhase writes nothing
// for.
func TestDomainMergeMatchesGlobalWinners(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	shapes := map[string]func(p int) []interval.List{
		"random": func(p int) []interval.List {
			views := make([]interval.List, p)
			for rank := range views {
				views[rank] = randCanonical(r, 6, 400)
			}
			return views
		},
		"some empty": func(p int) []interval.List {
			views := make([]interval.List, p)
			for rank := range views {
				if r.Intn(2) == 0 {
					views[rank] = randCanonical(r, 6, 400)
				}
			}
			return views
		},
		"span shorter than P": func(p int) []interval.List { // chunk 0: every domain but the last is empty
			views := make([]interval.List, p)
			for rank := range views {
				views[rank] = randCanonical(r, 2, max(int64(p)-1, 1))
			}
			return views
		},
		"one covers all": func(p int) []interval.List {
			views := make([]interval.List, p)
			for rank := range views {
				views[rank] = randCanonical(r, 6, 400)
			}
			views[r.Intn(p)] = interval.List{ext(0, 500)}
			return views
		},
	}
	for name, shape := range shapes {
		for _, p := range []int{1, 2, 3, 7, 64} {
			for round := range 40 {
				views := shape(p)
				if aggregateSpan(views).Empty() {
					if slices.ContainsFunc(views, func(v interval.List) bool { return len(v) > 0 }) {
						t.Fatalf("%s P=%d round %d: empty span over %v", name, p, round, views)
					}
					continue
				}
				domains, inbox, batches := exchange(views, p, true)
				var got pfs.Batch
				for owner, b := range batches {
					got.Ext, got.Writers = append(got.Ext, b.Ext...), append(got.Writers, b.Writers...)
					var senders []int
					for rank, v := range views {
						if size := price(v, domains.at(owner)); size > 0 {
							senders = append(senders, rank)
							if k := slices.IndexFunc(inbox[owner], func(pt mpi.Part) bool { return pt.Peer == rank }); k < 0 || inbox[owner][k].Size != size {
								t.Fatalf("%s P=%d round %d: owner %d received %v, want %d B from rank %d", name, p, round, owner, inbox[owner], size, rank)
							}
						}
					}
					if len(senders) != len(inbox[owner]) {
						t.Fatalf("%s P=%d round %d: owner %d received %v, want parts from %v", name, p, round, owner, inbox[owner], senders)
					}
				}
				want := winnersCut(views, domains)
				if !slices.Equal(got.Ext, want.Ext) || !slices.Equal(got.Writers, want.Writers) {
					t.Fatalf("%s P=%d round %d: owners merged %v by %v, the winners cut at the domains are %v by %v\nviews=%v",
						name, p, round, got.Ext, got.Writers, want.Ext, want.Writers, views)
				}
				_, _, lengths := exchange(views, p, false)
				for owner, b := range lengths {
					if want := batches[owner].Ext.Normalize(); !slices.Equal(b.Ext, want) || !b.Ext.IsCanonical() || b.Writers != nil {
						t.Fatalf("%s P=%d round %d: a file that keeps no writers gets %v by %v from owner %d, want %v", name, p, round, b.Ext, b.Writers, owner, want)
					}
				}
			}
		}
	}
	if span := aggregateSpan(make([]interval.List, 5)); !span.Empty() {
		t.Fatalf("all-empty views span %v", span)
	}
}

// senders lists, as Alltoall delivers them, the parts of the ranks whose
// views reach into domain.
func senders(views []interval.List, domain interval.Extent) []mpi.Part {
	var recv []mpi.Part
	for rank, v := range views {
		if size := price(v, domain); size > 0 {
			recv = append(recv, mpi.Part{Peer: rank, Size: size})
		}
	}
	return recv
}

// writerImage renders a merged batch as the writer of each of the first n
// bytes, -1 where it writes nothing; false if its extents overlap or
// descend.
func writerImage(b pfs.Batch, n int64) ([]int, bool) {
	img := slices.Repeat([]int{-1}, int(n))
	for i, e := range b.Ext {
		if i > 0 && b.Ext[i-1].End() > e.Off {
			return nil, false
		}
		for o := e.Off; o < e.End(); o++ {
			img[o] = b.Writers[i]
		}
	}
	return img, true
}

func TestMergePiecesHighestRankWins(t *testing.T) {
	domain := ext(0, 100)
	views := []interval.List{{ext(0, 50)}, {ext(25, 50)}, {ext(40, 20)}}
	merged, _ := mergeDomain(senders(views, domain), views, domain, true, math.MaxInt)
	img, ok := writerImage(merged, 100)
	if !ok {
		t.Fatalf("merged extents overlap: %v", merged.Ext)
	}
	if total := merged.Ext.TotalLen(); total != 75 { // union [0,75)
		t.Fatalf("merged %d bytes, want 75", total)
	}
	for o := 0; o < 75; o++ {
		want := 0
		if o >= 25 {
			want = 1
		}
		if o >= 40 && o < 60 {
			want = 2
		}
		if img[o] != want {
			t.Fatalf("byte %d credited to rank %d, want %d", o, img[o], want)
		}
	}
}

func TestMergePiecesClampsToDomain(t *testing.T) {
	views := []interval.List{{ext(0, 100)}}
	merged, _ := mergeDomain(senders(views, ext(40, 20)), views, ext(40, 20), true, math.MaxInt)
	if !slices.Equal(merged.Ext, interval.List{ext(40, 20)}) || !slices.Equal(merged.Writers, []int{0}) {
		t.Fatalf("merged %v by %v", merged.Ext, merged.Writers)
	}
}

// randPieces draws one rank's view as a request lists it: ascending,
// disjoint (at times touching) extents, normalized.
func randPieces(r *rand.Rand, dom int64) interval.List {
	var out interval.List
	off := int64(r.Intn(20))
	for k := r.Intn(5); k > 0 && off < dom; k-- {
		n := min(1+int64(r.Intn(30)), dom-off)
		out = append(out, ext(off, n))
		off += n + int64(r.Intn(3)/2*r.Intn(20)) // touching two times in three
	}
	return out.Normalize()
}

func TestQuickMergeMatchesHighestRankModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dom = 120
		views := make([]interval.List, 1+r.Intn(4))
		model := slices.Repeat([]int{-1}, dom) // winning rank per byte, -1 = unwritten
		for rank := range views {
			views[rank] = randPieces(r, dom)
			for _, e := range views[rank] {
				// rank ascends, so the later (higher) rank always wins.
				for o := e.Off; o < e.End(); o++ {
					model[o] = rank
				}
			}
		}
		domain := ext(0, dom)
		merged, _ := mergeDomain(senders(views, domain), views, domain, true, math.MaxInt)
		img, ok := writerImage(merged, dom)
		return ok && slices.Equal(img, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// setMerge is a per-byte oracle of a domain's merge, as the merge stood
// before the winners map: each sender's view inside the domain, from the
// highest rank down, claims as maximal runs only the bytes not yet
// claimed — a flag per domain byte — and the claims, each credited to its
// sender, are sorted into file order at the end.
func setMerge(views []interval.List, domain interval.Extent) pfs.Batch {
	claimed := make([]bool, domain.Len)
	var claims []index.Owned
	for rank := len(views) - 1; rank >= 0; rank-- {
		for _, e := range views[rank] {
			ext, first := e.Intersect(domain), len(claims) // the extent's first claim
			for off := ext.Off; off < ext.End(); off++ {
				if claimed[off-domain.Off] {
					continue
				}
				claimed[off-domain.Off] = true
				if n := len(claims) - 1; n >= first && claims[n].End() == off {
					claims[n].Len++
					continue
				}
				claims = append(claims, index.Owned{Extent: interval.Extent{Off: off, Len: 1}, Rank: rank})
			}
		}
	}
	slices.SortFunc(claims, func(a, b index.Owned) int { return cmp.Compare(a.Off, b.Off) })
	var b pfs.Batch
	for _, c := range claims {
		b.Ext, b.Writers = append(b.Ext, c.Extent), append(b.Writers, c.Rank)
	}
	return b
}

// TestMergeSegmentsMatchSetMerge pins the domain merge to a per-byte set
// merge, extent for extent — offsets, lengths and the sender each is
// credited to — on the three partitioning patterns, with domain
// boundaries that fall inside view extents and as many owners as ranks,
// more, or one. Extent-for-extent matters beyond ownership: crashPoint
// counts extents and a write charges per extent.
func TestMergeSegmentsMatchSetMerge(t *testing.T) {
	const m, n, p, r = 24, 48, 4, 4
	patterns := map[string]func(rank int) (workload.Piece, error){
		"column": func(rank int) (workload.Piece, error) { return workload.ColumnWise(m, n, p, r, rank) },
		"row":    func(rank int) (workload.Piece, error) { return workload.RowWise(m, n, p, r, rank) },
		"block":  func(rank int) (workload.Piece, error) { return workload.BlockBlock(m, n, 2, 2, r, rank) },
	}
	for name, pattern := range patterns {
		views := make([]interval.List, p)
		for rank := range views {
			piece, err := pattern(rank)
			if err != nil {
				t.Fatal(err)
			}
			views[rank] = interval.List(piece.Filetype.Flatten()).Normalize()
		}
		for _, n := range []int{p, 7, 1} {
			domains, _, batches := exchange(views, n, true)
			for owner, merged := range batches {
				domain := domains.at(owner)
				want := setMerge(views, domain)
				if len(want.Ext) == 0 || !slices.Equal(merged.Ext, want.Ext) || !slices.Equal(merged.Writers, want.Writers) {
					t.Fatalf("%s %v: domain merge gave %v by %v, set merge %v by %v",
						name, domain, merged.Ext, merged.Writers, want.Ext, want.Writers)
				}
			}
		}
	}
}

// TestMergeSplitsAtTheCrashRun pins the partial two-phase commit: for every
// crash run k of every owner, with and without writers, the written batch
// is the merge's first k runs — as they are when the file keeps writers,
// their canonical form when it does not — and the damage is the canonical
// form of the rest, even where the runs on either side of the crash run
// touch.
func TestMergeSplitsAtTheCrashRun(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	var cases [][]interval.List
	for range 40 {
		views := make([]interval.List, 1+r.Intn(5))
		for rank := range views {
			views[rank] = randPieces(r, 120)
		}
		cases = append(cases, views)
	}
	for _, procs := range []int{2, 4} {
		views := make([]interval.List, procs)
		for rank := range views {
			piece, err := workload.ColumnWise(8, 32, procs, 2, rank)
			if err != nil {
				t.Fatal(err)
			}
			views[rank] = interval.List(piece.Filetype.Flatten()).Normalize()
		}
		cases = append(cases, views)
	}
	touching := 0
	for c, views := range cases {
		span := aggregateSpan(views)
		if span.Empty() {
			continue
		}
		for _, owners := range []int{1, 3} {
			domains := newFileDomains(span, owners)
			for owner := range owners {
				domain := domains.at(owner)
				recv := senders(views, domain)
				all, _ := mergeDomain(recv, views, domain, true, math.MaxInt)
				for k := 0; k <= len(all.Ext)+1; k++ {
					kk := min(k, len(all.Ext))
					if kk > 0 && kk < len(all.Ext) && all.Ext[kk-1].End() == all.Ext[kk].Off {
						touching++
					}
					wantDamage := all.Ext[kk:].Normalize()
					for _, writers := range []bool{true, false} {
						written, damage := mergeDomain(recv, views, domain, writers, k)
						want := all.Slice(0, kk)
						if !writers {
							want = pfs.Batch{Ext: want.Ext.Normalize()}
						}
						if !slices.Equal(written.Ext, want.Ext) || !slices.Equal(written.Writers, want.Writers) || !slices.Equal(damage, wantDamage) {
							t.Fatalf("case %d domain %v crash %d writers %v: wrote %v by %v, damaged %v; want %v by %v, damage %v",
								c, domain, k, writers, written.Ext, written.Writers, damage, want.Ext, want.Writers, wantDamage)
						}
						if !writers && (written.Writers != nil || !written.Ext.IsCanonical()) {
							t.Fatalf("case %d domain %v crash %d: a file without writers gets %v by %v", c, domain, k, written.Ext, written.Writers)
						}
					}
				}
			}
		}
	}
	if touching == 0 {
		t.Fatal("no crash run touched the run before it")
	}
}

// fuzzView reads one rank's view from b: an offset step (signed, so
// extents need not ascend) and a length byte, then that many bytes the
// extent skips — fewer at b's end — normalized.
func fuzzView(b []byte) interval.List {
	var out interval.List
	off := int64(0)
	for len(b) >= 2 {
		off += int64(int8(b[0]))
		n := min(int(b[1]), len(b)-2)
		out = append(out, ext(off, int64(n)))
		b = b[2+n:]
	}
	return out.Normalize()
}

// FuzzMergePieces: whatever views three ranks hold, an owner that hears
// from all of them merges, for any domain, offset-sorted, disjoint,
// non-empty extents inside the domain, each inside the view of the rank it
// is credited to — the winners map over the views cut to the domain.
func FuzzMergePieces(f *testing.F) {
	f.Add([]byte{0, 50}, []byte{25, 50}, []byte{40, 20}, int64(0), int64(100))
	f.Add([]byte{0, 100}, []byte{}, []byte{}, int64(40), int64(20))
	f.Add([]byte{42, 5, 'h', 'e', 'l', 'l', 'o', 100, 0, 0x80, 3, 1, 2, 3}, []byte{1, 2, 3},
		[]byte{0, 3, 'a', 'b', 'c'}, int64(-200), int64(400))
	f.Fuzz(func(t *testing.T, a, b, c []byte, off, n int64) {
		if n < 0 || n > 1<<40 || off < -1<<40 || off > 1<<40 { // domains are spans of a file
			return
		}
		views := []interval.List{fuzzView(a), fuzzView(b), fuzzView(c)}
		recv := []mpi.Part{{Peer: 0}, {Peer: 1}, {Peer: 2}}
		domain := ext(off, n)
		merged, _ := mergeDomain(recv, views, domain, true, math.MaxInt)
		at := domain.Off
		for i, e := range merged.Ext {
			if e.Empty() || e.Off < at || e.End() > domain.End() {
				t.Fatalf("extent %v after %d in domain %v", e, at, domain)
			}
			at = e.End()
			if !slices.ContainsFunc(views[merged.Writers[i]], func(v interval.Extent) bool { return v.ContainsExtent(e) }) {
				t.Fatalf("extent %v credited to rank %d, whose view does not hold it", e, merged.Writers[i])
			}
		}
		want := winnersCut(views, newFileDomains(domain, 1))
		if !slices.Equal(merged.Ext, want.Ext) || !slices.Equal(merged.Writers, want.Writers) {
			t.Fatalf("merged %v by %v, the winners in %v are %v by %v", merged.Ext, merged.Writers, domain, want.Ext, want.Writers)
		}
	})
}
