package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"atomio/internal/fileview"
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
	"atomio/internal/workload"
)

func TestFileDomains(t *testing.T) {
	d := fileDomains(ext(100, 10), 3)
	want := []interval.Extent{ext(100, 3), ext(103, 3), ext(106, 4)}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("domains = %v, want %v", d, want)
		}
	}
	// Disjoint, covering, ordered — for any split.
	d = fileDomains(ext(0, 1), 4)
	var total int64
	for i, e := range d {
		total += e.Len
		if i > 0 && d[i-1].End() != e.Off {
			t.Fatalf("domains not contiguous: %v", d)
		}
	}
	if total != 1 {
		t.Fatalf("domains don't cover span: %v", d)
	}
}

// decodePieces reads a whole payload with the merge's piece reader, order
// check off: the codec has no opinion on order, the merge enforces it.
func decodePieces(payload []byte) ([]pfs.Segment, error) {
	var out []pfs.Segment
	for c := (pieceCursor{rest: payload}); len(c.rest) > 0; {
		if err := c.next(math.MinInt64); err != nil {
			return out, err
		}
		out = append(out, pfs.Segment{Off: c.off, Data: c.data})
	}
	return out, nil
}

func TestPieceCodecRoundTrip(t *testing.T) {
	payload := appendPiece(nil, 42, []byte("hello"))
	payload = appendPiece(payload, 1000, []byte{})
	payload = appendPiece(payload, 7, []byte{1, 2, 3})
	segs, err := decodePieces(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segs = %v", segs)
	}
	if segs[0].Off != 42 || string(segs[0].Data) != "hello" {
		t.Fatalf("seg0 = %+v", segs[0])
	}
	if segs[1].Off != 1000 || len(segs[1].Data) != 0 {
		t.Fatalf("seg1 = %+v", segs[1])
	}
	if _, err := decodePieces([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header accepted")
	}
	long := appendPiece(nil, 0, []byte("abc"))
	if _, err := decodePieces(long[:len(long)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// viewsOf recovers the views a set of routed payloads came from: each
// source's view is the union of its pieces (as far as they decode).
func viewsOf(recv [][]byte) []interval.List {
	views := make([]interval.List, len(recv))
	for src, payload := range recv {
		pieces, _ := decodePieces(payload)
		views[src] = segExtents(pieces)
	}
	return views
}

// mergeReceived merges recv against the winners map of its own pieces.
func mergeReceived(recv [][]byte, domain interval.Extent) ([]pfs.Segment, error) {
	return mergePieces(recv, domain, index.Winners(viewsOf(recv)))
}

func TestMergePiecesHighestRankWins(t *testing.T) {
	domain := ext(0, 100)
	recv := make([][]byte, 3)
	recv[0] = appendPiece(nil, 0, bytes.Repeat([]byte{1}, 50))
	recv[1] = appendPiece(nil, 25, bytes.Repeat([]byte{2}, 50))
	recv[2] = appendPiece(nil, 40, bytes.Repeat([]byte{3}, 20))
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
	recv := [][]byte{appendPiece(nil, 0, bytes.Repeat([]byte{9}, 100))}
	segs, err := mergeReceived(recv, ext(40, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Off != 40 || len(segs[0].Data) != 20 {
		t.Fatalf("segs = %v", segs)
	}
}

// TestMergePiecesFailsLoudly feeds the merge every way a payload can break
// the cursor walk's assumptions: each is an error naming the sender.
func TestMergePiecesFailsLoudly(t *testing.T) {
	domain := ext(0, 100)
	low := appendPiece(nil, 0, bytes.Repeat([]byte{1}, 50))
	good := appendPiece(appendPiece(nil, 10, []byte("abcd")), 20, []byte("efgh"))
	owners := index.Winners([]interval.List{{ext(0, 50)}, {ext(10, 4), ext(20, 4)}})
	if _, err := mergePieces([][]byte{low, good}, domain, owners); err != nil {
		t.Fatalf("well-formed payloads: %v", err)
	}
	negative := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 10), 1<<63)
	for name, tc := range map[string]struct {
		payload []byte
		want    string
	}{
		"truncated header":     {good[:len(good)-10], "truncated two-phase piece header"},
		"truncated body":       {good[:len(good)-1], "truncated two-phase piece body"},
		"negative length":      {negative, "truncated two-phase piece body"},
		"descending":           {appendPiece(appendPiece(appendPiece(nil, 10, []byte("abcd")), 5, []byte("zz")), 20, []byte("efgh")), "out of order"},
		"self-overlapping":     {appendPiece(appendPiece(nil, 10, []byte("abcd")), 12, []byte("efgh")), "out of order"},
		"gap inside a run":     {appendPiece(appendPiece(nil, 10, []byte("ab")), 20, []byte("efgh")), "do not cover [10,14) from 12"},
		"run starts uncovered": {appendPiece(appendPiece(nil, 11, []byte("bcd")), 20, []byte("efgh")), "do not cover [10,14) from 10"},
		"pieces end early":     {appendPiece(nil, 10, []byte("abcd")), "do not cover [20,24) from 20"},
		"no pieces at all":     {nil, "do not cover [10,14) from 10"},
	} {
		_, err := mergePieces([][]byte{low, tc.payload}, domain, owners)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "from rank 1") {
			t.Errorf("%s: err = %v, want one from rank 1 containing %q", name, err, tc.want)
		}
	}
}

// randPieces draws one source's payload the way the routing produces it:
// ascending, disjoint (at times touching) pieces filled with fill.
func randPieces(r *rand.Rand, dom int64, fill byte) []byte {
	var payload []byte
	off := int64(r.Intn(20))
	for k := r.Intn(5); k > 0 && off < dom; k-- {
		n := min(1+int64(r.Intn(30)), dom-off)
		payload = appendPiece(payload, off, bytes.Repeat([]byte{fill}, int(n)))
		off += n + int64(r.Intn(3)/2*r.Intn(20)) // touching two times in three
	}
	return payload
}

func TestQuickMergeMatchesHighestRankModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dom = 120
		p := 1 + r.Intn(4)
		recv := make([][]byte, p)
		model := make([]int, dom) // winning rank+1 per byte, 0 = unwritten
		for src := range recv {
			recv[src] = randPieces(r, dom, byte(src+1))
			pieces, _ := decodePieces(recv[src])
			for _, piece := range pieces {
				// src ascends, so the later (higher) rank always wins.
				for o := piece.Off; o < piece.Off+piece.Len(); o++ {
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
		// The same pieces out of file order are an error, not a merge — shown
		// on the top rank, all of whose pieces the merge must read.
		src := p - 1
		pieces, _ := decodePieces(recv[src])
		if len(pieces) < 2 {
			return true
		}
		recv[src] = nil
		for k := len(pieces) - 1; k >= 0; k-- {
			recv[src] = appendPiece(recv[src], pieces[k].Off, pieces[k].Data)
		}
		_, err = mergeReceived(recv, ext(0, dom))
		return err != nil && strings.Contains(err.Error(), fmt.Sprintf("from rank %d", src))
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
func setMergePieces(recv [][]byte, domain interval.Extent) ([]pfs.Segment, error) {
	var covered index.Set
	var segs []pfs.Segment
	for src := len(recv) - 1; src >= 0; src-- {
		pieces, err := decodePieces(recv[src])
		if err != nil {
			return nil, fmt.Errorf("from rank %d: %w", src, err)
		}
		for _, piece := range pieces {
			ext := interval.Extent{Off: piece.Off, Len: piece.Len()}.Intersect(domain)
			covered.Visit(ext, func(keep interval.Extent, claimed bool) bool {
				if !claimed {
					segs = append(segs, pfs.Segment{
						Off:  keep.Off,
						Data: piece.Data[keep.Off-piece.Off : keep.End()-piece.Off],
					})
				}
				return true
			})
			covered.Add(ext)
		}
	}
	slices.SortFunc(segs, func(a, b pfs.Segment) int { return cmp.Compare(a.Off, b.Off) })
	return segs, nil
}

// TestMergeSegmentsMatchSetMerge pins the cursor merge to its predecessor,
// segment for segment — offsets, lengths and the very bytes of recv each
// segment points at — on the three partitioning patterns, with every
// mapping cut in two touching halves (non-canonical, as a fileview over a
// split datatype produces) and domain boundaries that fall inside pieces.
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
		maps := make([][]fileview.Mapping, p)
		views := make([]interval.List, p)
		for rank := range maps {
			piece, err := pattern(rank)
			if err != nil {
				t.Fatal(err)
			}
			var at int64
			for _, e := range piece.Filetype.Flatten() {
				half := e.Len / 2
				maps[rank] = append(maps[rank],
					fileview.Mapping{File: ext(e.Off, half), Buf: at},
					fileview.Mapping{File: ext(e.Off+half, e.Len-half), Buf: at + half})
				at += e.Len
			}
			views[rank] = ExtentsOf(maps[rank]).Normalize()
		}
		owners := index.Winners(views)
		span := ext(owners[0].Off, owners[len(owners)-1].End()-owners[0].Off)
		for _, domains := range [][]interval.Extent{fileDomains(span, p), fileDomains(span, 7), {span}} {
			for _, domain := range domains {
				recv := make([][]byte, p)
				for rank, mm := range maps {
					for _, mp := range mm {
						if ov := mp.File.Intersect(domain); !ov.Empty() {
							recv[rank] = appendPiece(recv[rank], ov.Off, bytes.Repeat([]byte{byte(rank + 1)}, int(ov.Len)))
						}
					}
				}
				got, err := mergePieces(recv, domain, owners)
				if err != nil {
					t.Fatalf("%s %v: %v", name, domain, err)
				}
				want, _ := setMergePieces(recv, domain)
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

// FuzzMergePieces: whatever three ranks send, the merge returns an error or
// offset-sorted, disjoint, non-empty segments inside the domain whose Data
// is a window of what was received. The winners map comes from the pieces
// that decode — or, with swap, from the wrong ranks' pieces, so that it
// promises bytes the payloads do not hold.
func FuzzMergePieces(f *testing.F) {
	f.Add(appendPiece(nil, 0, bytes.Repeat([]byte{1}, 50)), appendPiece(nil, 25, bytes.Repeat([]byte{2}, 50)),
		appendPiece(nil, 40, bytes.Repeat([]byte{3}, 20)), int64(0), int64(100), false)
	f.Add(appendPiece(nil, 0, bytes.Repeat([]byte{9}, 100)), []byte{}, []byte{}, int64(40), int64(20), true)
	f.Add(appendPiece(appendPiece(appendPiece(nil, 42, []byte("hello")), 1000, []byte{}), 7, []byte{1, 2, 3}),
		[]byte{1, 2, 3}, appendPiece(nil, 0, []byte("abc"))[:18], int64(0), int64(2000), false)
	f.Fuzz(func(t *testing.T, a, b, c []byte, off, n int64, swap bool) {
		recv := [][]byte{a, b, c}
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
			if !slices.ContainsFunc(recv, func(payload []byte) bool {
				lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(payload))), uintptr(unsafe.Pointer(unsafe.SliceData(s.Data)))
				return lo <= hi && hi+uintptr(len(s.Data)) <= lo+uintptr(len(payload))
			}) {
				t.Fatalf("segment at %d does not alias a received payload", s.Off)
			}
		}
	})
}
