// Package interval implements half-open byte-extent algebra on 64-bit file
// offsets. It is the foundation for MPI datatype flattening, file-view
// manipulation, overlap detection between processes' file views, and the
// view clipping performed by the process-rank ordering atomicity strategy.
//
// All operations treat an extent as the half-open range [Off, Off+Len).
// Extent lists in canonical form are sorted by offset, contain no empty
// extents, and contain no overlapping or adjacent (touching) extents.
package interval

import "fmt"

// Extent is a half-open byte range [Off, Off+Len) in a file.
type Extent struct {
	Off int64 // starting byte offset
	Len int64 // length in bytes; canonical extents have Len > 0
}

// End returns the first offset past the extent, Off+Len.
func (e Extent) End() int64 { return e.Off + e.Len }

// Empty reports whether the extent covers no bytes.
func (e Extent) Empty() bool { return e.Len <= 0 }

// ContainsExtent reports whether o lies entirely inside e.
// The empty extent is contained in every extent.
func (e Extent) ContainsExtent(o Extent) bool {
	if o.Empty() {
		return true
	}
	return o.Off >= e.Off && o.End() <= e.End()
}

// Overlaps reports whether e and o share at least one byte.
func (e Extent) Overlaps(o Extent) bool {
	if e.Empty() || o.Empty() {
		return false
	}
	return e.Off < o.End() && o.Off < e.End()
}

// Intersect returns the overlap of e and o. If they do not overlap the
// result is the empty extent {0, 0}.
func (e Extent) Intersect(o Extent) Extent {
	lo := max(e.Off, o.Off)
	hi := min(e.End(), o.End())
	if hi <= lo {
		return Extent{}
	}
	return Extent{Off: lo, Len: hi - lo}
}

// Union returns the smallest single extent covering both e and o. If
// either input is empty it returns the other.
func (e Extent) Union(o Extent) Extent {
	if e.Empty() {
		return o
	}
	if o.Empty() {
		return e
	}
	lo := min(e.Off, o.Off)
	hi := max(e.End(), o.End())
	return Extent{Off: lo, Len: hi - lo}
}

// Subtract returns the up-to-two pieces of e not covered by o.
func (e Extent) Subtract(o Extent) []Extent {
	if e.Empty() {
		return nil
	}
	ov := e.Intersect(o)
	if ov.Empty() {
		return []Extent{e}
	}
	var out []Extent
	if ov.Off > e.Off {
		out = append(out, Extent{Off: e.Off, Len: ov.Off - e.Off})
	}
	if ov.End() < e.End() {
		out = append(out, Extent{Off: ov.End(), Len: e.End() - ov.End()})
	}
	return out
}

// Shift returns the extent displaced by d bytes.
func (e Extent) Shift(d int64) Extent { return Extent{Off: e.Off + d, Len: e.Len} }

// String formats the extent as [off,end).
func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Off, e.End()) }
