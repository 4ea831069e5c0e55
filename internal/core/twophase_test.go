package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
func part(from int, pieces ...piece) mpi.Part { return mpi.Part{Peer: from, Data: pieces} }

// filled is a piece of n bytes of fill at off.
func filled(off, n int64, fill byte) piece {
	return piece{ext(off, n), bytes.Repeat([]byte{fill}, int(n))}
}

// viewsOf recovers the views a set of received parts came from: each
// sender's view is the union of its pieces.
func viewsOf(recv []mpi.Part) []interval.List {
	views := make([]interval.List, len(recv))
	for k, pt := range recv {
		views[k] = nil
		for _, pc := range pt.Data.([]piece) {
			views[k] = append(views[k], pc.Extent)
		}
		views[k] = views[k].Normalize()
	}
	return views
}

// mergeReceived merges recv, sent by ranks 0..len-1, against the winners map
// of its own pieces.
func mergeReceived(recv []mpi.Part, domain interval.Extent) ([]pfs.Segment, error) {
	return mergePieces(recv, domain, index.Winners(viewsOf(recv)))
}

func TestMergePiecesHighestRankWins(t *testing.T) {
	domain := ext(0, 100)
	recv := []mpi.Part{part(0, filled(0, 50, 1)), part(1, filled(25, 50, 2)), part(2, filled(40, 20, 3))}
	segs, err := mergeReceived(recv, domain)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct and check byte ownership.
	img := make([]byte, 100)
	var total int64
	for i, s := range segs {
		copy(img[s.Off:], s.Data)
		total += int64(len(s.Data))
		if i > 0 && segs[i-1].Off+int64(len(segs[i-1].Data)) > s.Off {
			t.Fatalf("merged segments overlap: %v then %v", segs[i-1].Off, s.Off)
		}
	}
	if total != 75 { // union [0,75)
		t.Fatalf("merged %d bytes, want 75", total)
	}
	for o := 0; o < 75; o++ {
		want := byte(1)
		if o >= 25 {
			want = 2
		}
		if o >= 40 && o < 60 {
			want = 3
		}
		if img[o] != want {
			t.Fatalf("byte %d = %d, want %d", o, img[o], want)
		}
	}
}

func TestMergePiecesClampsToDomain(t *testing.T) {
	segs, err := mergeReceived([]mpi.Part{part(0, filled(0, 100, 9))}, ext(40, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Off != 40 || len(segs[0].Data) != 20 {
		t.Fatalf("segs = %v", segs)
	}
}

// TestMergePiecesFailsLoudly feeds the merge pieces that fall short of a run
// the winners map gives their sender: each is an error naming the sender.
func TestMergePiecesFailsLoudly(t *testing.T) {
	domain := ext(0, 100)
	low := part(0, filled(0, 50, 1))
	owners := index.Winners([]interval.List{{ext(0, 50)}, {ext(10, 4), ext(20, 4)}})
	if _, err := mergePieces([]mpi.Part{low, part(1, filled(10, 4, 2), filled(20, 4, 2))}, domain, owners); err != nil {
		t.Fatalf("covering pieces: %v", err)
	}
	for name, tc := range map[string]struct {
		recv []mpi.Part
		want string
	}{
		"gap inside a run":     {[]mpi.Part{low, part(1, filled(10, 2, 2), filled(20, 4, 2))}, "do not cover [10,14) from 12"},
		"run starts uncovered": {[]mpi.Part{low, part(1, filled(11, 3, 2), filled(20, 4, 2))}, "do not cover [10,14) from 10"},
		"pieces end early":     {[]mpi.Part{low, part(1, filled(10, 4, 2))}, "do not cover [20,24) from 20"},
		"no pieces at all":     {[]mpi.Part{low, part(1)}, "do not cover [10,14) from 10"},
		"no part at all":       {[]mpi.Part{low}, "do not cover [10,14) from 10"},
	} {
		_, err := mergePieces(tc.recv, domain, owners)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "from rank 1") {
			t.Errorf("%s: err = %v, want one from rank 1 containing %q", name, err, tc.want)
		}
	}
}

// randPieces draws one sender's pieces the way the routing produces them:
// ascending, disjoint (at times touching) pieces filled with fill.
func randPieces(r *rand.Rand, dom int64, fill byte) []piece {
	var out []piece
	off := int64(r.Intn(20))
	for k := r.Intn(5); k > 0 && off < dom; k-- {
		n := min(1+int64(r.Intn(30)), dom-off)
		out = append(out, filled(off, n, fill))
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
		model := make([]int, dom) // winning rank+1 per byte, 0 = unwritten
		for src := range recv {
			recv[src] = part(src, randPieces(r, dom, byte(src+1))...)
			for _, pc := range recv[src].Data.([]piece) {
				// src ascends, so the later (higher) rank always wins.
				for o := pc.Off; o < pc.End(); o++ {
					model[o] = src + 1
				}
			}
		}
		segs, err := mergeReceived(recv, ext(0, dom))
		if err != nil {
			return false
		}
		img := make([]byte, dom)
		seen := make(interval.List, 0)
		for _, s := range segs {
			e := interval.Extent{Off: s.Off, Len: int64(len(s.Data))}
			if seen.Overlaps(interval.List{e}) {
				return false // merged output must be disjoint
			}
			seen = seen.Union(interval.List{e})
			copy(img[s.Off:], s.Data)
		}
		for o := 0; o < dom; o++ {
			if int(img[o]) != model[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// setMergePieces is the merge as it stood before the shared winners map —
// the oracle of TestMergeSegmentsMatchSetMerge. Pieces are processed from
// the highest rank down; each claims only the bytes not yet covered, tracked
// in an index.Set whose Visit finds the parts an Add newly covers, and the
// claims are sorted into file order at the end.
func setMergePieces(recv []mpi.Part, domain interval.Extent) []pfs.Segment {
	var covered index.Set
	var segs []pfs.Segment
	for k := len(recv) - 1; k >= 0; k-- {
		for _, pc := range recv[k].Data.([]piece) {
			ext := pc.Intersect(domain)
			covered.Visit(ext, func(keep interval.Extent, claimed bool) bool {
				if !claimed {
					segs = append(segs, pfs.Segment{
						Off:  keep.Off,
						Data: pc.data[keep.Off-pc.Off : keep.End()-pc.Off],
					})
				}
				return true
			})
			covered.Add(ext)
		}
	}
	slices.SortFunc(segs, func(a, b pfs.Segment) int { return cmp.Compare(a.Off, b.Off) })
	return segs
}

// TestMergeSegmentsMatchSetMerge pins the cursor merge to its predecessor,
// segment for segment — offsets, lengths and the very bytes of recv each
// segment points at — on the three partitioning patterns, with every
// extent cut in two touching halves (non-canonical, as a fileview over a
// split datatype produces) and domain boundaries that fall inside pieces.
// The pieces are the ones route cuts, so the routing is pinned too.
// Segment-for-segment matters beyond content: crashPoint counts segments
// and WriteV charges per segment.
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
				buf := bytes.Repeat([]byte{byte(rank + 1)}, int(req.TotalLen()))
				for _, pt := range route(buf, req, domains) {
					inbox[pt.Peer] = append(inbox[pt.Peer], mpi.Part{Peer: rank, Size: pt.Size, Data: pt.Data})
				}
			}
			for owner, recv := range inbox {
				domain := domains.at(owner)
				got, err := mergePieces(recv, domain, owners)
				if err != nil {
					t.Fatalf("%s %v: %v", name, domain, err)
				}
				want := setMergePieces(recv, domain)
				same := func(a, b pfs.Segment) bool {
					return a.Off == b.Off && len(a.Data) == len(b.Data) && unsafe.SliceData(a.Data) == unsafe.SliceData(b.Data)
				}
				if len(want) == 0 || !slices.EqualFunc(got, want, same) {
					t.Fatalf("%s %v: cursor merge gave %d segments, set merge %d, or they differ:\n%v\nwant\n%v",
						name, domain, len(got), len(want), segExtents(got), segExtents(want))
				}
			}
		}
	}
}

// fuzzPieces reads one sender's pieces from b: an offset step (signed, so
// pieces need not ascend) and a length byte, then that many bytes of data —
// windows of b itself, fewer at its end.
func fuzzPieces(b []byte) []piece {
	var out []piece
	off := int64(0)
	for len(b) >= 2 {
		off += int64(int8(b[0]))
		n := min(int(b[1]), len(b)-2)
		out = append(out, piece{ext(off, int64(n)), b[2 : 2+n]})
		b = b[2+n:]
	}
	return out
}

// FuzzMergePieces: whatever pieces three ranks send, the merge returns an
// error or offset-sorted, disjoint, non-empty segments inside the domain
// whose Data is a window of what was sent. The winners map comes from the
// pieces — or, with swap, from the wrong ranks' pieces, so that it promises
// bytes the senders do not hold.
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
		segs, err := mergePieces(recv, domain, index.Winners(views))
		if err != nil {
			return
		}
		at := domain.Off
		for _, s := range segs {
			if len(s.Data) == 0 || s.Off < at || s.Off+int64(len(s.Data)) > domain.End() {
				t.Fatalf("segment [%d,+%d) after %d in domain %v", s.Off, len(s.Data), at, domain)
			}
			at = s.Off + int64(len(s.Data))
			if !slices.ContainsFunc(sent, func(b []byte) bool {
				lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(s.Data)))
				return lo <= hi && hi+uintptr(len(s.Data)) <= lo+uintptr(len(b))
			}) {
				t.Fatalf("segment at %d does not alias a sent window", s.Off)
			}
		}
	})
}
