// Package fileview implements MPI file views: the (displacement, etype,
// filetype) triple set by MPI_File_set_view that makes the non-contiguous
// regions selected by a derived datatype appear to a process as one linear
// byte stream.
//
// A view tiles its filetype repeatedly starting at the displacement: tile i
// occupies file offsets [Disp + i*Extent(filetype), ...). Mapping a request
// of n bytes walks the tiles' flattened segments in logical order, producing
// the (file extent, buffer offset) pairs an MPI-IO implementation hands to
// the file system.
package fileview

import (
	"fmt"

	"atomio/internal/datatype"
	"atomio/internal/interval"
)

// View is an MPI file view.
type View struct {
	// Disp is the absolute displacement, in bytes, at which the tiling of
	// the filetype begins.
	Disp int64
	// Etype is the elementary unit of the view. Offsets and sizes in MPI
	// I/O calls are expressed in etype units; this repository uses byte
	// etypes throughout, as the paper's Figure 4 code does (MPI_CHAR).
	Etype datatype.Datatype
	// Filetype selects the visible file regions; it is tiled repeatedly.
	Filetype datatype.Datatype
	// flat is Filetype.Flatten(), computed once by New and read-only after.
	// A literal View leaves it nil and flattens on every request instead.
	flat []interval.Extent
}

// New constructs a view after validating the triple.
func New(disp int64, etype, filetype datatype.Datatype) View {
	if disp < 0 {
		panic(fmt.Sprintf("fileview: negative displacement %d", disp))
	}
	if etype.Size() <= 0 {
		panic("fileview: etype must have positive size")
	}
	if filetype.Size()%etype.Size() != 0 {
		panic(fmt.Sprintf("fileview: filetype size %d not a multiple of etype size %d",
			filetype.Size(), etype.Size()))
	}
	return View{Disp: disp, Etype: etype, Filetype: filetype, flat: filetype.Flatten()}
}

// Mapping relates one contiguous file extent to the request-buffer offset
// its bytes stream from (for writes) or into (for reads).
type Mapping struct {
	File interval.Extent
	Buf  int64
}

// Map converts a request of nbytes starting at view position 0 into the
// ordered list of (file extent, buffer offset) pairs. Adjacent file segments
// are coalesced. Map panics if nbytes is negative or if the view's filetype
// selects no bytes while nbytes is positive.
func (v View) Map(nbytes int64) []Mapping { return v.MapAt(0, nbytes) }

// MapAt is Map starting at logical view position start (in bytes of the
// view's linear stream), the position an MPI file pointer would hold after
// writing start bytes through the view.
func (v View) MapAt(start, nbytes int64) []Mapping {
	if start < 0 || nbytes < 0 {
		panic(fmt.Sprintf("fileview: negative request start %d or size %d", start, nbytes))
	}
	if nbytes == 0 {
		return nil
	}
	tileSize := v.Filetype.Size()
	if tileSize <= 0 {
		panic("fileview: request on a view whose filetype selects no bytes")
	}
	flat := v.flat
	if flat == nil {
		flat = v.Filetype.Flatten()
	}
	ext := v.Filetype.Extent()

	// The first pass counts the mappings and the second fills them in: the
	// result is allocated once, at its size, however many tiles coalesce.
	var out []Mapping
	for fill := false; ; fill = true {
		n := 0
		var cur Mapping // the mapping being extended, out[n-1]
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
				take := min(seg.Len, remaining)
				// Pieces are consecutive in the buffer: two that touch in the file are one.
				if off := tileOff + seg.Off; n > 0 && cur.File.End() == off {
					cur.File.Len += take
				} else {
					cur = Mapping{File: interval.Extent{Off: off, Len: take}, Buf: nbytes - remaining}
					n++
				}
				if fill {
					out[n-1] = cur
				}
				remaining -= take
			}
		}
		if fill {
			return out
		}
		out = make([]Mapping, n)
	}
}

// Extents returns the physical file extents of a request of nbytes, in
// logical order. The result is ordered and non-overlapping (a valid
// interval.List in canonical order) because filetype segments are increasing
// within a tile and tiles advance monotonically.
func (v View) Extents(nbytes int64) interval.List {
	maps := v.Map(nbytes)
	out := make(interval.List, len(maps))
	for i, m := range maps {
		out[i] = m.File
	}
	return out
}

// Span returns the single extent from the first to the last byte a request
// of nbytes touches — the range the byte-range locking strategy must lock.
// Only the first and last logical byte are mapped (two O(filetype-segment)
// walks), not the full request: a column-wise request of thousands of tiles
// no longer materializes its extent list just to take first-to-last.
func (v View) Span(nbytes int64) interval.Extent {
	if nbytes == 0 {
		return interval.Extent{}
	}
	first := v.MapAt(0, 1)[0].File
	last := v.MapAt(nbytes-1, 1)[0].File
	lo, hi := first.Off, last.End()
	if last.Off < lo {
		lo = last.Off
	}
	if first.End() > hi {
		hi = first.End()
	}
	return interval.Extent{Off: lo, Len: hi - lo}
}

// Contiguous reports whether a request of nbytes maps to a single contiguous
// file extent (the row-wise partitioning case of §3.2, where plain POSIX
// atomicity suffices).
func (v View) Contiguous(nbytes int64) bool {
	return len(v.Map(nbytes)) <= 1
}

// String describes the view.
func (v View) String() string {
	return fmt.Sprintf("view(disp=%d, etype=%s, filetype=%s)", v.Disp, v.Etype, v.Filetype)
}
