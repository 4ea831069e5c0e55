package datatype

import (
	"fmt"

	"atomio/internal/interval"
)

// Contiguous is count copies of a base type laid end to end
// (MPI_Type_contiguous).
type Contiguous struct {
	Count int
	Base  Datatype
}

// NewContiguous constructs a contiguous type; count must be non-negative.
func NewContiguous(count int, base Datatype) Contiguous {
	if count < 0 {
		panic(fmt.Sprintf("datatype: negative count %d", count))
	}
	return Contiguous{Count: count, Base: base}
}

// Size implements Datatype.
func (t Contiguous) Size() int64 { return int64(t.Count) * t.Base.Size() }

// Extent implements Datatype.
func (t Contiguous) Extent() int64 { return int64(t.Count) * t.Base.Extent() }

// Flatten implements Datatype.
func (t Contiguous) Flatten() []interval.Extent {
	if t.Count == 0 || t.Size() == 0 {
		return nil
	}
	base, dense := flattenBase(t.Base)
	if dense {
		return []interval.Extent{{Off: 0, Len: t.Size()}}
	}
	var out []interval.Extent
	for i := 0; i < t.Count; i++ {
		out = appendShifted(out, base, int64(i)*t.Base.Extent())
	}
	return out
}

// String implements Datatype.
func (t Contiguous) String() string {
	return fmt.Sprintf("contiguous(%d, %s)", t.Count, t.Base)
}

// Vector is count blocks of blockLen base elements, with the start of
// consecutive blocks stride base-extents apart (MPI_Type_vector).
type Vector struct {
	Count    int
	BlockLen int
	Stride   int // in units of Base extents
	Base     Datatype
}

// NewVector constructs a vector type.
func NewVector(count, blockLen, stride int, base Datatype) Vector {
	if count < 0 || blockLen < 0 {
		panic(fmt.Sprintf("datatype: negative vector shape %d/%d", count, blockLen))
	}
	if count > 0 && blockLen > stride {
		// Overlapping blocks make the logical order non-monotone; the
		// paper's views never need them.
		panic("datatype: vector blocks overlap (blockLen > stride)")
	}
	return Vector{Count: count, BlockLen: blockLen, Stride: stride, Base: base}
}

// Size implements Datatype.
func (t Vector) Size() int64 { return int64(t.Count) * int64(t.BlockLen) * t.Base.Size() }

// Extent implements Datatype.
//
// Following MPI, the extent runs from the first byte to the last byte of the
// last block (holes after the last block are not part of the extent).
func (t Vector) Extent() int64 {
	if t.Count == 0 {
		return 0
	}
	be := t.Base.Extent()
	return int64(t.Count-1)*int64(t.Stride)*be + int64(t.BlockLen)*be
}

// Flatten implements Datatype.
func (t Vector) Flatten() []interval.Extent {
	be := t.Base.Extent()
	base, dense := flattenBase(t.Base)
	var out []interval.Extent
	if dense {
		out = make([]interval.Extent, 0, t.Count)
	}
	for i := 0; i < t.Count; i++ {
		blockOff := int64(i) * int64(t.Stride) * be
		if dense {
			out = coalesce(out, interval.Extent{Off: blockOff, Len: int64(t.BlockLen) * t.Base.Size()})
			continue
		}
		for j := 0; j < t.BlockLen; j++ {
			out = appendShifted(out, base, blockOff+int64(j)*be)
		}
	}
	return out
}

// String implements Datatype.
func (t Vector) String() string {
	return fmt.Sprintf("vector(%d, %d, %d, %s)", t.Count, t.BlockLen, t.Stride, t.Base)
}

// Hvector is a Vector whose stride is given in bytes (MPI_Type_create_hvector).
type Hvector struct {
	Count       int
	BlockLen    int
	StrideBytes int64
	Base        Datatype
}

// Size implements Datatype.
func (t Hvector) Size() int64 { return int64(t.Count) * int64(t.BlockLen) * t.Base.Size() }

// Extent implements Datatype.
func (t Hvector) Extent() int64 {
	if t.Count == 0 {
		return 0
	}
	return int64(t.Count-1)*t.StrideBytes + int64(t.BlockLen)*t.Base.Extent()
}

// Flatten implements Datatype.
func (t Hvector) Flatten() []interval.Extent {
	be := t.Base.Extent()
	base, dense := flattenBase(t.Base)
	var out []interval.Extent
	if dense {
		out = make([]interval.Extent, 0, t.Count)
	}
	for i := 0; i < t.Count; i++ {
		blockOff := int64(i) * t.StrideBytes
		if dense {
			out = coalesce(out, interval.Extent{Off: blockOff, Len: int64(t.BlockLen) * t.Base.Size()})
			continue
		}
		for j := 0; j < t.BlockLen; j++ {
			out = appendShifted(out, base, blockOff+int64(j)*be)
		}
	}
	return out
}

// String implements Datatype.
func (t Hvector) String() string {
	return fmt.Sprintf("hvector(%d, %d, %dB, %s)", t.Count, t.BlockLen, t.StrideBytes, t.Base)
}
