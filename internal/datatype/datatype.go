// Package datatype implements the MPI derived-datatype constructors the
// paper's file views are built from: contiguous, vector/hvector,
// indexed/hindexed, N-dimensional subarray, struct, and resized types over
// elementary types.
//
// A datatype describes a *type map*: an ordered sequence of byte segments
// relative to a start address (or file displacement). Flatten returns that
// sequence with adjacent segments coalesced — the same "flattening" a real
// MPI-IO implementation such as ROMIO performs before issuing file-system
// requests. The order of flattened segments is the logical order in which a
// buffer's bytes stream into the segments, which for file types defines the
// mapping from a write buffer to file offsets (see package fileview).
package datatype

import (
	"fmt"

	"atomio/internal/interval"
)

// Datatype is an MPI-style derived datatype.
type Datatype interface {
	// Size returns the number of data bytes in one instance of the type
	// (the sum of segment lengths, excluding holes).
	Size() int64
	// Extent returns the span of one instance including holes: the
	// distance from the first byte to one past the last, possibly
	// overridden by Resized. Tiling a type places copy i at offset
	// i*Extent().
	Extent() int64
	// Flatten returns the type map as segments relative to offset 0, in
	// logical order, with adjacent segments coalesced. Every call returns
	// a fresh list that the caller owns.
	Flatten() []interval.Extent
	// String returns a short constructor-style description.
	String() string
}

// Byte is the elementary one-byte type (MPI_BYTE / MPI_CHAR).
var Byte Datatype = Elem{1, "byte"}

// Elem is a dense elementary type of fixed width, e.g. Elem{8,"double"}.
type Elem struct {
	Width int64
	Name  string
}

// Size implements Datatype.
func (e Elem) Size() int64 { return e.Width }

// Extent implements Datatype.
func (e Elem) Extent() int64 { return e.Width }

// Flatten implements Datatype.
func (e Elem) Flatten() []interval.Extent {
	if e.Width <= 0 {
		return nil
	}
	return []interval.Extent{{Off: 0, Len: e.Width}}
}

// String implements Datatype.
func (e Elem) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("elem(%d)", e.Width)
}

// Dense reports whether one instance of t is a single contiguous run
// starting at offset 0 and filling its whole extent (no holes, no leading
// lower-bound gap). Dense types allow fast-path flattening of containers
// that repeat them: a container can emit one segment per block instead of
// shifting the base's type map per element. Size()==Extent() alone is not
// sufficient — an Indexed type whose first displacement is positive has
// equal size and extent but a nonzero lower bound.
func Dense(t Datatype) bool {
	_, dense := flattenBase(t)
	return dense
}

// flattenBase flattens a container's base type and reports whether it is
// Dense. Flattening a base can be arbitrarily expensive and allocates, so a
// container's Flatten calls this once, outside its block loop.
func flattenBase(base Datatype) (flat []interval.Extent, dense bool) {
	flat = base.Flatten()
	switch {
	case base.Size() != base.Extent():
		return flat, false
	case len(flat) == 0:
		return flat, base.Size() == 0
	default:
		return flat, len(flat) == 1 && flat[0].Off == 0 && flat[0].Len == base.Size()
	}
}

// coalesce appends seg to list, merging it with the last entry when they are
// adjacent in both file order and logical order.
func coalesce(list []interval.Extent, seg interval.Extent) []interval.Extent {
	if seg.Empty() {
		return list
	}
	if n := len(list); n > 0 && list[n-1].End() == seg.Off {
		list[n-1].Len += seg.Len
		return list
	}
	return append(list, seg)
}

// appendShifted appends base's segments shifted by off, coalescing.
func appendShifted(list []interval.Extent, base []interval.Extent, off int64) []interval.Extent {
	for _, s := range base {
		list = coalesce(list, s.Shift(off))
	}
	return list
}
