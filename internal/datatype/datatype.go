// Package datatype implements the MPI datatypes the paper's file views are
// built from, and no others: elementary types (Byte), Contiguous — the
// default view every file opens with — and Subarray, the one constructor
// the paper's Figure 4 code calls (MPI_Type_create_subarray) to build the
// column-wise, row-wise and block-block views of internal/workload. MPI's
// other constructors (vector, indexed, struct, resized, darray) describe
// views no workload here builds, so they are not implemented.
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
	// Extent returns the span of one instance including holes (for a
	// subarray, the whole array). Tiling a type places copy i at offset
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

// flattenBase flattens a container's base type and reports whether it is
// dense: one instance is a single contiguous run starting at offset 0 and
// filling its whole extent (no holes, no leading gap). A container can then
// emit one segment per block instead of shifting the base's type map per
// element. Size()==Extent() alone is not sufficient — a type whose data
// starts past offset 0 can have equal size and extent. Flattening a base
// can be arbitrarily expensive and allocates, so a container's Flatten
// calls this once, outside its block loop. An elementary base is dense
// (or, with a negative width, selects nothing) and is not flattened.
func flattenBase(base Datatype) (flat []interval.Extent, dense bool) {
	if e, ok := base.(Elem); ok {
		return nil, e.Width >= 0
	}
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
