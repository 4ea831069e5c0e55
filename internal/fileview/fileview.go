// Package fileview implements MPI file views: the (displacement, etype,
// filetype) triple set by MPI_File_set_view that makes the non-contiguous
// regions selected by a derived datatype appear to a process as one linear
// byte stream.
//
// A view tiles its filetype repeatedly starting at the displacement: tile i
// occupies file offsets [Disp + i*Extent(filetype), ...). A request of n
// bytes walks the tiles' flattened segments in logical order, producing the
// file extents an MPI-IO implementation hands to the file system, in the
// order the buffer's bytes stream into them.
package fileview

import (
	"fmt"
	"slices"

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
	// tile is the view's first tile: Filetype.Flatten() shifted to Disp,
	// computed once by New. Extents lends it out, so nothing writes it
	// after New. A literal View leaves it nil and flattens on every request
	// instead.
	tile interval.List
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
	tile := interval.List(filetype.Flatten())
	if disp != 0 {
		for i := range tile {
			tile[i].Off += disp
		}
	}
	return View{Disp: disp, Etype: etype, Filetype: filetype, tile: slices.Clip(tile)}
}

// Extents returns the file extents of a request of nbytes starting at
// logical view position start (in bytes of the view's linear stream, the
// position an MPI file pointer holds after writing start bytes through the
// view), in buffer order: extent i streams from the buffer bytes that follow
// the lengths of the extents before it. Pieces consecutive in the buffer
// that touch in the file are one extent. Filetype segments increase within
// a tile and tiles advance, so the list is ordered and non-overlapping.
//
// A request of exactly the first tile of a view New built returns the
// view's stored tile itself, with no allocation: the result is read-only.
// Any other request allocates its list once, at its size. Extents panics if
// start or nbytes is negative, or if the filetype selects no bytes while
// nbytes is positive.
func (v View) Extents(start, nbytes int64) interval.List {
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
	tile, base := v.tile, int64(0)
	switch {
	case tile == nil:
		tile, base = v.Filetype.Flatten(), v.Disp
	case start == 0 && nbytes == tileSize:
		return tile
	}
	ext := v.Filetype.Extent()

	// The first pass counts the extents and the second fills them in: the
	// result is allocated once, at its size, however many tiles coalesce.
	var out interval.List
	for fill := false; ; fill = true {
		n := 0
		var cur interval.Extent // the extent being extended, out[n-1]
		skip := start % tileSize
		remaining := nbytes
		for t := start / tileSize; remaining > 0; t++ {
			tileOff := base + t*ext
			for _, seg := range tile {
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
				if off := tileOff + seg.Off; n > 0 && cur.End() == off {
					cur.Len += take
				} else {
					cur = interval.Extent{Off: off, Len: take}
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
		out = make(interval.List, n)
	}
}

// Mapping is one extent of Extents with its buffer offset spelled out.
// Mapping and Map are kept only as the pin of atombench's fileview.map_ns_per_seg probe.
type Mapping struct {
	File interval.Extent
	Buf  int64
}

// Map is MapAt(0, nbytes), kept only as the pin of atombench's fileview.map_ns_per_seg probe.
func (v View) Map(nbytes int64) []Mapping { return v.MapAt(0, nbytes) }

// MapAt is Extents(start, nbytes) as mappings: each extent with its buffer
// offset, the sum of the lengths before it.
func (v View) MapAt(start, nbytes int64) []Mapping {
	req := v.Extents(start, nbytes)
	if len(req) == 0 {
		return nil
	}
	out := make([]Mapping, len(req))
	var at int64
	for i, e := range req {
		out[i] = Mapping{File: e, Buf: at}
		at += e.Len
	}
	return out
}

// String describes the view.
func (v View) String() string {
	return fmt.Sprintf("view(disp=%d, etype=%s, filetype=%s)", v.Disp, v.Etype, v.Filetype)
}
