package fileview

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"atomio/internal/datatype"
	"atomio/internal/interval"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

func TestWholeFileByteView(t *testing.T) {
	v := New(0, datatype.Byte, datatype.NewContiguous(1, datatype.Byte))
	maps := v.Map(100)
	if len(maps) != 1 || maps[0].File != ext(0, 100) || maps[0].Buf != 0 {
		t.Fatalf("whole-file map = %+v", maps)
	}
}

func TestMapZeroBytes(t *testing.T) {
	v := New(0, datatype.Byte, datatype.Byte)
	if got := v.Map(0); got != nil {
		t.Fatalf("Map(0) = %v", got)
	}
}

func TestColumnWiseViewSingleTile(t *testing.T) {
	// 4x12 array, rank owning columns 3..5: the Figure 4 pattern.
	ft := datatype.NewSubarray([]int{4, 12}, []int{4, 3}, []int{0, 3}, datatype.Byte)
	v := New(0, datatype.Byte, ft)
	maps := v.Map(12) // full sub-array: one tile
	wantFile := []interval.Extent{ext(3, 3), ext(15, 3), ext(27, 3), ext(39, 3)}
	if len(maps) != 4 {
		t.Fatalf("maps = %+v", maps)
	}
	for i, m := range maps {
		if m.File != wantFile[i] {
			t.Errorf("segment %d file = %v, want %v", i, m.File, wantFile[i])
		}
		if m.Buf != int64(i*3) {
			t.Errorf("segment %d buf = %d, want %d", i, m.Buf, i*3)
		}
	}
}

func TestMapPartialRequestCutsSegment(t *testing.T) {
	ft := datatype.NewSubarray([]int{2, 8}, []int{2, 4}, []int{0, 0}, datatype.Byte)
	v := New(0, datatype.Byte, ft)
	maps := v.Map(6) // first row (4) + half of second row (2)
	if len(maps) != 2 {
		t.Fatalf("maps = %+v", maps)
	}
	if maps[0].File != ext(0, 4) || maps[1].File != ext(8, 2) {
		t.Fatalf("maps = %+v", maps)
	}
}

func TestMapTilesRepeat(t *testing.T) {
	// Filetype: 2 bytes data in an extent of 8 -> tile i contributes
	// [8i, 8i+2). A 6-byte request needs 3 tiles.
	ft := strided{count: 1, block: 2, ext: 8}
	v := New(0, datatype.Byte, ft)
	maps := v.Map(6)
	want := []interval.Extent{ext(0, 2), ext(8, 2), ext(16, 2)}
	if len(maps) != 3 {
		t.Fatalf("maps = %+v", maps)
	}
	for i, m := range maps {
		if m.File != want[i] || m.Buf != int64(2*i) {
			t.Fatalf("maps = %+v, want files %v", maps, want)
		}
	}
}

func TestMapTilesCoalesceAcrossBoundary(t *testing.T) {
	// A dense filetype tiles into one long contiguous run.
	ft := datatype.NewContiguous(4, datatype.Byte)
	v := New(16, datatype.Byte, ft)
	maps := v.Map(12)
	if len(maps) != 1 || maps[0].File != ext(16, 12) {
		t.Fatalf("maps = %+v", maps)
	}
}

func TestDisplacementShiftsEverything(t *testing.T) {
	ft := strided{count: 2, block: 1, stride: 4}
	v := New(1000, datatype.Byte, ft)
	got := v.Extents(0, 2)
	want := interval.List{ext(1000, 1), ext(1004, 1)}
	if !got.Equal(want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
}

func TestExtentsAreCanonicalOrder(t *testing.T) {
	ft := datatype.NewSubarray([]int{8, 8}, []int{8, 2}, []int{0, 2}, datatype.Byte)
	v := New(0, datatype.Byte, ft)
	exts := v.Extents(0, 16)
	if !exts.IsCanonical() {
		t.Fatalf("extents not canonical: %v", exts)
	}
	if exts.TotalLen() != 16 {
		t.Fatalf("total = %d", exts.TotalLen())
	}
}

func TestMultiTileRequestOfSubarray(t *testing.T) {
	// Writing 2 full tiles of a subarray view appends a second whole-array
	// slab; extent of a subarray = whole array size.
	ft := datatype.NewSubarray([]int{2, 4}, []int{2, 2}, []int{0, 0}, datatype.Byte)
	v := New(0, datatype.Byte, ft)
	got := v.Extents(0, 8)
	want := interval.List{ext(0, 2), ext(4, 2), ext(8, 2), ext(12, 2)}
	if !got.Equal(want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
}

func TestViewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"negative disp":    func() { New(-1, datatype.Byte, datatype.Byte) },
		"zero etype":       func() { New(0, datatype.Elem{Width: 0, Name: "void"}, datatype.Byte) },
		"etype not divide": func() { New(0, datatype.Elem{Width: 4, Name: "int"}, datatype.NewContiguous(3, datatype.Byte)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMapPanicsOnNegativeAndEmptyFiletype(t *testing.T) {
	v := New(0, datatype.Byte, datatype.Byte)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative nbytes")
			}
		}()
		v.Map(-1)
	}()
	empty := View{Disp: 0, Etype: datatype.Byte, Filetype: datatype.NewContiguous(0, datatype.Byte)}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for empty filetype with bytes requested")
			}
		}()
		empty.Map(1)
	}()
}

func TestMapAtResumesMidStream(t *testing.T) {
	// A file pointer mid-way through a tile: MapAt(start, n) must produce
	// exactly the extents Map(start+n) produces after the first start bytes.
	ft := datatype.NewSubarray([]int{4, 8}, []int{4, 3}, []int{0, 2}, datatype.Byte)
	v := New(0, datatype.Byte, ft)
	full := v.Extents(0, 24) // two tiles worth
	for start := int64(0); start <= 20; start += 5 {
		n := int64(24) - start
		got := v.MapAt(start, n)
		var gotExts interval.List
		for _, m := range got {
			gotExts = append(gotExts, m.File)
		}
		// Reference: bytes [start, start+n) of the full mapping.
		var ref interval.List
		var pos int64
		for _, e := range full {
			segStart := pos
			pos += e.Len
			keepLo := start - segStart
			if keepLo < 0 {
				keepLo = 0
			}
			keepHi := start + n - segStart
			if keepHi > e.Len {
				keepHi = e.Len
			}
			if keepHi > keepLo {
				ref = append(ref, interval.Extent{Off: e.Off + keepLo, Len: keepHi - keepLo})
			}
		}
		if !gotExts.Equal(ref) {
			t.Fatalf("MapAt(%d): got %v, want %v", start, gotExts, ref)
		}
		// Buffer offsets must restart at 0 and partition [0, n).
		var expect int64
		for _, m := range got {
			if m.Buf != expect {
				t.Fatalf("MapAt(%d) buf offset %d, want %d", start, m.Buf, expect)
			}
			expect += m.File.Len
		}
	}
}

func TestBufferOffsetsArePerfectPartition(t *testing.T) {
	// Buffer offsets must tile [0, n) exactly, in order.
	ft := datatype.NewSubarray([]int{16, 16}, []int{16, 5}, []int{0, 7}, datatype.Byte)
	v := New(128, datatype.Byte, ft)
	const n = 80
	maps := v.Map(n)
	var expect int64
	for _, m := range maps {
		if m.Buf != expect {
			t.Fatalf("buffer offset %d, want %d", m.Buf, expect)
		}
		expect += m.File.Len
	}
	if expect != n {
		t.Fatalf("mapped %d bytes, want %d", expect, n)
	}
}

// mapAtByAppend is MapAt as it was before the view kept its flattening: one
// Flatten per call and a result grown from nil by append. It is the oracle
// the counted, allocate-once MapAt is held to.
func mapAtByAppend(v View, start, nbytes int64) []Mapping {
	if nbytes == 0 {
		return nil
	}
	tileSize := v.Filetype.Size()
	flat := v.Filetype.Flatten()
	ext := v.Filetype.Extent()

	var out []Mapping
	var buf int64
	skip := start % tileSize
	remaining := nbytes
	for tile := start / tileSize; remaining > 0; tile++ {
		tileOff := v.Disp + tile*ext
		for _, seg := range flat {
			if remaining <= 0 {
				break
			}
			if skip >= seg.Len {
				skip -= seg.Len
				continue
			}
			seg = interval.Extent{Off: seg.Off + skip, Len: seg.Len - skip}
			skip = 0
			take := seg.Len
			if take > remaining {
				take = remaining
			}
			fe := interval.Extent{Off: tileOff + seg.Off, Len: take}
			if n := len(out); n > 0 && out[n-1].File.End() == fe.Off &&
				out[n-1].Buf+out[n-1].File.Len == buf {
				out[n-1].File.Len += take
			} else {
				out = append(out, Mapping{File: fe, Buf: buf})
			}
			buf += take
			remaining -= take
		}
	}
	return out
}

// TestMapAtMatchesAppendOracle holds MapAt to the append-from-nil loop it
// replaced, and to its own promise: the result is allocated at exactly its
// length. Requests start and end at every alignment — mid-segment, mid-tile,
// across one to five tiles — over the subarray shapes the harness uses, a
// tiled vector, and views New did not build.
func TestMapAtMatchesAppendOracle(t *testing.T) {
	vector := strided{count: 3, block: 2, stride: 5} // 6 bytes in a 12-byte extent
	types := map[string]datatype.Datatype{
		"column-wise": datatype.NewSubarray([]int{6, 12}, []int{6, 3}, []int{0, 4}, datatype.Byte),
		"row-wise":    datatype.NewSubarray([]int{6, 12}, []int{2, 12}, []int{3, 0}, datatype.Byte),
		"block":       datatype.NewSubarray([]int{6, 12}, []int{3, 5}, []int{2, 6}, datatype.Byte),
		"vector":      vector,
		"padded":      strided{count: 3, block: 2, stride: 5, ext: 16},
		"dense":       datatype.NewContiguous(4, datatype.Byte),
	}
	for name, ft := range types {
		for _, v := range []View{
			New(0, datatype.Byte, ft),
			New(7, datatype.Byte, ft),
			{Disp: 7, Etype: datatype.Byte, Filetype: ft}, // a literal: flattens on use
		} {
			tile := ft.Size()
			for start := int64(0); start <= 2*tile; start++ {
				for n := int64(0); start+n <= 5*tile+1; n++ {
					got, want := v.MapAt(start, n), mapAtByAppend(v, start, n)
					if !slices.Equal(got, want) {
						t.Fatalf("%s %v MapAt(%d, %d) = %v, want %v", name, v, start, n, got, want)
					}
					if cap(got) != len(got) {
						t.Fatalf("%s MapAt(%d, %d): %d mappings in a slice of %d", name, start, n, len(got), cap(got))
					}
					// The walker itself, the whole-tile request that lends the stored tile included.
					req := v.Extents(start, n)
					if len(req) != len(want) || cap(req) != len(req) {
						t.Fatalf("%s %v Extents(%d, %d) = %v (cap %d), want the extents of %v", name, v, start, n, req, cap(req), want)
					}
					for i, m := range want {
						if req[i] != m.File {
							t.Fatalf("%s %v Extents(%d, %d) = %v, want the extents of %v", name, v, start, n, req, want)
						}
					}
				}
			}
		}
	}
}

// TestMapAtDefaultViewAllocatesOneMapping: the default view of a newly
// opened file tiles one byte at a time, so a 1 MiB request walks a million
// tiles that all coalesce. It must come back as one mapping in a slice of
// one — never sized by tiles × segments.
func TestMapAtDefaultViewAllocatesOneMapping(t *testing.T) {
	v := New(0, datatype.Byte, datatype.NewContiguous(1, datatype.Byte))
	var maps []Mapping
	allocs := testing.AllocsPerRun(3, func() { maps = v.MapAt(5, 1<<20) })
	if len(maps) != 1 || cap(maps) != 1 || maps[0] != (Mapping{File: ext(5, 1<<20)}) {
		t.Fatalf("MapAt(5, 1 MiB) = %v (cap %d)", maps, cap(maps))
	}
	if allocs > 2 {
		t.Fatalf("MapAt(5, 1 MiB) made %v allocations, want at most 2", allocs)
	}
}

// TestExtentsLendsTheStoredTile: a request of exactly the first tile —
// every benchmark cell's request — is the view's stored tile itself, shifted
// to the displacement, with no allocation; the same request on a literal
// view walks its own list.
func TestExtentsLendsTheStoredTile(t *testing.T) {
	ft := datatype.NewSubarray([]int{64, 256}, []int{64, 8}, []int{0, 40}, datatype.Byte)
	v := New(128, datatype.Byte, ft)
	var req interval.List
	if allocs := testing.AllocsPerRun(10, func() { req = v.Extents(0, ft.Size()) }); allocs != 0 {
		t.Fatalf("whole-tile Extents made %v allocations, want 0", allocs)
	}
	if want := interval.List(ft.Flatten()).Shift(128); !req.Equal(want) || cap(req) != len(req) {
		t.Fatalf("whole-tile Extents = %v (cap %d), want %v", req, cap(req), want)
	}
	if again := v.Extents(0, ft.Size()); unsafe.SliceData(again) != unsafe.SliceData(req) {
		t.Fatal("two whole-tile requests returned different lists, not the stored tile")
	}
	literal := View{Disp: 128, Etype: datatype.Byte, Filetype: ft}
	if own := literal.Extents(0, ft.Size()); !own.Equal(req) || unsafe.SliceData(own) == unsafe.SliceData(req) {
		t.Fatalf("literal view's whole-tile Extents = %v, want a copy of %v", own, req)
	}
}

// TestNewFlattensOnce: the view owns its flattening — every request on a
// view New built reads the one list.
func TestNewFlattensOnce(t *testing.T) {
	ft := &countingType{Datatype: strided{count: 4, block: 2, stride: 5}}
	v := New(0, datatype.Byte, ft)
	v.Map(8)
	v.MapAt(3, 20)
	if ft.flattened != 1 {
		t.Fatalf("filetype flattened %d times, want once, by New", ft.flattened)
	}
}

// strided is a test-only filetype with the holes MPI_Type_vector and
// MPI_Type_create_resized make and no production view has: count blocks of
// block bytes, stride bytes apart (block < stride), in an extent of ext
// bytes — or, when ext is 0, the vector's extent, which ends at the last
// block's end.
type strided struct{ count, block, stride, ext int64 }

func (t strided) Size() int64 { return t.count * t.block }
func (t strided) Extent() int64 {
	if t.ext > 0 {
		return t.ext
	}
	return (t.count-1)*t.stride + t.block
}
func (t strided) Flatten() []interval.Extent {
	out := make([]interval.Extent, t.count)
	for i := range out {
		out[i] = interval.Extent{Off: int64(i) * t.stride, Len: t.block}
	}
	return out
}
func (t strided) String() string {
	return fmt.Sprintf("strided(%d, %d, %d, %d)", t.count, t.block, t.stride, t.ext)
}

// countingType counts the Flatten calls made on the datatype it wraps.
type countingType struct {
	datatype.Datatype
	flattened int
}

func (c *countingType) Flatten() []interval.Extent {
	c.flattened++
	return c.Datatype.Flatten()
}
