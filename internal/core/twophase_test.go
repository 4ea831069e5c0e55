package core

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
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

// part is a received part of pieces from rank from.
func part(from int, pieces ...interval.Extent) mpi.Part {
	return mpi.Part{Peer: from, Data: interval.List(pieces)}
}

// viewsOf recovers the views a set of received parts came from: each
// sender's view is the union of its pieces.
func viewsOf(recv []mpi.Part) []interval.List {
	views := make([]interval.List, len(recv))
	for k, pt := range recv {
		views[k] = slices.Clone(pt.Data.(interval.List)).Normalize()
	}
	return views
}

// mergeReceived merges recv, sent by ranks 0..len-1, against the winners map
// of its own pieces.
func mergeReceived(recv []mpi.Part, domain interval.Extent) (pfs.Batch, error) {
	return mergePieces(recv, domain, index.Winners(viewsOf(recv)), true)
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
	recv := []mpi.Part{part(0, ext(0, 50)), part(1, ext(25, 50)), part(2, ext(40, 20))}
	merged, err := mergeReceived(recv, domain)
	if err != nil {
		t.Fatal(err)
	}
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
	merged, err := mergeReceived([]mpi.Part{part(0, ext(0, 100))}, ext(40, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(merged.Ext, interval.List{ext(40, 20)}) || !slices.Equal(merged.Writers, []int{0}) {
		t.Fatalf("merged %v by %v", merged.Ext, merged.Writers)
	}
}

// TestMergePiecesFailsLoudly feeds the merge pieces that fall short of a run
// the winners map gives their sender: each is an error naming the sender.
func TestMergePiecesFailsLoudly(t *testing.T) {
	domain := ext(0, 100)
	low := part(0, ext(0, 50))
	owners := index.Winners([]interval.List{{ext(0, 50)}, {ext(10, 4), ext(20, 4)}})
	if _, err := mergePieces([]mpi.Part{low, part(1, ext(10, 4), ext(20, 4))}, domain, owners, true); err != nil {
		t.Fatalf("covering pieces: %v", err)
	}
	for name, tc := range map[string]struct {
		recv []mpi.Part
		want string
	}{
		"gap inside a run":     {[]mpi.Part{low, part(1, ext(10, 2), ext(20, 4))}, "do not cover [10,14) from 12"},
		"run starts uncovered": {[]mpi.Part{low, part(1, ext(11, 3), ext(20, 4))}, "do not cover [10,14) from 10"},
		"pieces end early":     {[]mpi.Part{low, part(1, ext(10, 4))}, "do not cover [20,24) from 20"},
		"no pieces at all":     {[]mpi.Part{low, part(1)}, "do not cover [10,14) from 10"},
		"no part at all":       {[]mpi.Part{low}, "do not cover [10,14) from 10"},
	} {
		_, err := mergePieces(tc.recv, domain, owners, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "from rank 1") {
			t.Errorf("%s: err = %v, want one from rank 1 containing %q", name, err, tc.want)
		}
	}
}

// randPieces draws one sender's pieces the way the routing produces them:
// ascending, disjoint (at times touching) pieces.
func randPieces(r *rand.Rand, dom int64) []interval.Extent {
	var out []interval.Extent
	off := int64(r.Intn(20))
	for k := r.Intn(5); k > 0 && off < dom; k-- {
		n := min(1+int64(r.Intn(30)), dom-off)
		out = append(out, ext(off, n))
		off += n + int64(r.Intn(3)/2*r.Intn(20)) // touching two times in three
	}
	return out
}

func TestQuickMergeMatchesHighestRankModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dom = 120
		p := 1 + r.Intn(4)
		recv := make([]mpi.Part, p)
		model := slices.Repeat([]int{-1}, dom) // winning rank per byte, -1 = unwritten
		for src := range recv {
			recv[src] = part(src, randPieces(r, dom)...)
			for _, pc := range recv[src].Data.(interval.List) {
				// src ascends, so the later (higher) rank always wins.
				for o := pc.Off; o < pc.End(); o++ {
					model[o] = src
				}
			}
		}
		merged, err := mergeReceived(recv, ext(0, dom))
		if err != nil {
			return false
		}
		img, ok := writerImage(merged, dom)
		return ok && slices.Equal(img, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// setMergePieces is the merge as it stood before the shared winners map —
// the oracle of TestMergeSegmentsMatchSetMerge. Pieces are processed from
// the highest rank down; each claims, as maximal runs, only the bytes not
// yet claimed, tracked in a flag per domain byte, and the claims — each
// credited to its sender — are sorted into file order at the end.
func setMergePieces(recv []mpi.Part, domain interval.Extent) pfs.Batch {
	claimed := make([]bool, domain.Len)
	var claims []index.Owned
	for k := len(recv) - 1; k >= 0; k-- {
		for _, pc := range recv[k].Data.(interval.List) {
			ext, first := pc.Intersect(domain), len(claims) // the piece's first claim
			for off := ext.Off; off < ext.End(); off++ {
				if claimed[off-domain.Off] {
					continue
				}
				claimed[off-domain.Off] = true
				if n := len(claims) - 1; n >= first && claims[n].End() == off {
					claims[n].Len++
					continue
				}
				claims = append(claims, index.Owned{Extent: interval.Extent{Off: off, Len: 1}, Rank: recv[k].Peer})
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

// TestMergeSegmentsMatchSetMerge pins the cursor merge to its predecessor,
// extent for extent — offsets, lengths and the sender each is credited
// to — on the three partitioning patterns, with every extent cut in two
// touching halves (non-canonical, as a fileview over a split datatype
// produces) and domain boundaries that fall inside pieces. The pieces are
// the ones route cuts, so the routing is pinned too. Extent-for-extent
// matters beyond ownership: crashPoint counts extents and a write charges
// per extent.
func TestMergeSegmentsMatchSetMerge(t *testing.T) {
	const m, n, p, r = 24, 48, 4, 4
	patterns := map[string]func(rank int) (workload.Piece, error){
		"column": func(rank int) (workload.Piece, error) { return workload.ColumnWise(m, n, p, r, rank) },
		"row":    func(rank int) (workload.Piece, error) { return workload.RowWise(m, n, p, r, rank) },
		"block":  func(rank int) (workload.Piece, error) { return workload.BlockBlock(m, n, 2, 2, r, rank) },
	}
	for name, pattern := range patterns {
		reqs := make([]interval.List, p)
		views := make([]interval.List, p)
		for rank := range reqs {
			piece, err := pattern(rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range piece.Filetype.Flatten() {
				half := e.Len / 2
				reqs[rank] = append(reqs[rank], ext(e.Off, half), ext(e.Off+half, e.Len-half))
			}
			views[rank] = reqs[rank].Normalize()
		}
		owners := index.Winners(views)
		span := ext(owners[0].Off, owners[len(owners)-1].End()-owners[0].Off)
		for _, n := range []int{p, 7, 1} {
			domains := newFileDomains(span, n)
			inbox := make([][]mpi.Part, n) // by owner
			for rank, req := range reqs {
				for _, pt := range route(req, domains) {
					inbox[pt.Peer] = append(inbox[pt.Peer], mpi.Part{Peer: rank, Size: pt.Size, Data: pt.Data})
				}
			}
			for owner, recv := range inbox {
				domain := domains.at(owner)
				merged, err := mergePieces(recv, domain, owners, true)
				if err != nil {
					t.Fatalf("%s %v: %v", name, domain, err)
				}
				// A file that keeps no writers is handed the extents alone.
				if lengths, _ := mergePieces(recv, domain, owners, false); !slices.Equal(lengths.Ext, merged.Ext) || lengths.Writers != nil {
					t.Fatalf("%s %v: a merge for a file that keeps no writers gives %v, writers %v", name, domain, lengths.Ext, lengths.Writers)
				}
				want := setMergePieces(recv, domain)
				if len(want.Ext) == 0 || !slices.Equal(merged.Ext, want.Ext) || !slices.Equal(merged.Writers, want.Writers) {
					t.Fatalf("%s %v: cursor merge gave %v by %v, set merge %v by %v",
						name, domain, merged.Ext, merged.Writers, want.Ext, want.Writers)
				}
			}
		}
	}
}

// fuzzPieces reads one sender's pieces from b: an offset step (signed, so
// pieces need not ascend) and a length byte, then that many bytes the piece
// skips — fewer at b's end.
func fuzzPieces(b []byte) []interval.Extent {
	var out []interval.Extent
	off := int64(0)
	for len(b) >= 2 {
		off += int64(int8(b[0]))
		n := min(int(b[1]), len(b)-2)
		out = append(out, ext(off, int64(n)))
		b = b[2+n:]
	}
	return out
}

// FuzzMergePieces: whatever pieces three ranks send, the merge returns an
// error or offset-sorted, disjoint, non-empty extents inside the domain,
// each inside a piece of the rank it is credited to. The winners map comes
// from the pieces — or, with swap, from the wrong ranks' pieces, so that it
// promises bytes the senders do not hold.
func FuzzMergePieces(f *testing.F) {
	f.Add([]byte{0, 50}, []byte{25, 50}, []byte{40, 20}, int64(0), int64(100), false)
	f.Add([]byte{0, 100}, []byte{}, []byte{}, int64(40), int64(20), true)
	f.Add([]byte{42, 5, 'h', 'e', 'l', 'l', 'o', 100, 0, 0x80, 3, 1, 2, 3}, []byte{1, 2, 3},
		[]byte{0, 3, 'a', 'b', 'c'}, int64(-200), int64(400), false)
	f.Fuzz(func(t *testing.T, a, b, c []byte, off, n int64, swap bool) {
		sent := [][]byte{a, b, c}
		recv := make([]mpi.Part, len(sent))
		for k, s := range sent {
			recv[k] = part(k, fuzzPieces(s)...)
		}
		views := viewsOf(recv)
		if swap {
			views[0], views[2] = views[2], views[0]
		}
		domain := ext(off, n)
		merged, err := mergePieces(recv, domain, index.Winners(views), true)
		if err != nil {
			return
		}
		at := domain.Off
		for i, e := range merged.Ext {
			if e.Empty() || e.Off < at || e.End() > domain.End() {
				t.Fatalf("extent %v after %d in domain %v", e, at, domain)
			}
			at = e.End()
			if !slices.ContainsFunc(recv[merged.Writers[i]].Data.(interval.List), func(pc interval.Extent) bool { return pc.ContainsExtent(e) }) {
				t.Fatalf("extent %v credited to rank %d, which sent no piece holding it", e, merged.Writers[i])
			}
		}
	})
}
