package datatype

import (
	"fmt"

	"atomio/internal/interval"
)

// Indexed is a sequence of blocks of base elements at element-granular
// displacements (MPI_Type_indexed). BlockLens[i] base elements are placed at
// displacement Disps[i] (in units of base extents). Displacements must be
// strictly increasing in file order with non-overlapping blocks, which is
// the case for every file view in this repository.
type Indexed struct {
	BlockLens []int
	Disps     []int
	Base      Datatype
}

// NewIndexed constructs an indexed type after validating the shape.
func NewIndexed(blockLens, disps []int, base Datatype) Indexed {
	if len(blockLens) != len(disps) {
		panic(fmt.Sprintf("datatype: indexed blockLens/disps length mismatch %d/%d",
			len(blockLens), len(disps)))
	}
	for i := range blockLens {
		if blockLens[i] < 0 {
			panic("datatype: negative indexed block length")
		}
		if i > 0 && disps[i] < disps[i-1]+blockLens[i-1] {
			panic("datatype: indexed blocks out of order or overlapping")
		}
	}
	return Indexed{BlockLens: blockLens, Disps: disps, Base: base}
}

// Size implements Datatype.
func (t Indexed) Size() int64 {
	var n int64
	for _, b := range t.BlockLens {
		n += int64(b)
	}
	return n * t.Base.Size()
}

// Extent implements Datatype.
func (t Indexed) Extent() int64 {
	if len(t.BlockLens) == 0 {
		return 0
	}
	be := t.Base.Extent()
	first := int64(t.Disps[0]) * be
	last := (int64(t.Disps[len(t.Disps)-1]) + int64(t.BlockLens[len(t.BlockLens)-1])) * be
	return last - first
}

// Flatten implements Datatype.
func (t Indexed) Flatten() []interval.Extent {
	be := t.Base.Extent()
	base, dense := flattenBase(t.Base)
	var out []interval.Extent
	if dense {
		out = make([]interval.Extent, 0, len(t.BlockLens))
	}
	for i, bl := range t.BlockLens {
		blockOff := int64(t.Disps[i]) * be
		if dense {
			out = coalesce(out, interval.Extent{Off: blockOff, Len: int64(bl) * t.Base.Size()})
			continue
		}
		for j := 0; j < bl; j++ {
			out = appendShifted(out, base, blockOff+int64(j)*be)
		}
	}
	return out
}

// String implements Datatype.
func (t Indexed) String() string {
	return fmt.Sprintf("indexed(%d blocks, %s)", len(t.BlockLens), t.Base)
}

// Hindexed is Indexed with byte-granular displacements
// (MPI_Type_create_hindexed).
type Hindexed struct {
	BlockLens []int
	DispBytes []int64
	Base      Datatype
}

// NewHindexed constructs an hindexed type after validating the shape.
func NewHindexed(blockLens []int, dispBytes []int64, base Datatype) Hindexed {
	if len(blockLens) != len(dispBytes) {
		panic("datatype: hindexed blockLens/dispBytes length mismatch")
	}
	be := base.Extent()
	for i := range blockLens {
		if blockLens[i] < 0 {
			panic("datatype: negative hindexed block length")
		}
		if i > 0 && dispBytes[i] < dispBytes[i-1]+int64(blockLens[i-1])*be {
			panic("datatype: hindexed blocks out of order or overlapping")
		}
	}
	return Hindexed{BlockLens: blockLens, DispBytes: dispBytes, Base: base}
}

// Size implements Datatype.
func (t Hindexed) Size() int64 {
	var n int64
	for _, b := range t.BlockLens {
		n += int64(b)
	}
	return n * t.Base.Size()
}

// Extent implements Datatype.
func (t Hindexed) Extent() int64 {
	if len(t.BlockLens) == 0 {
		return 0
	}
	first := t.DispBytes[0]
	last := t.DispBytes[len(t.DispBytes)-1] + int64(t.BlockLens[len(t.BlockLens)-1])*t.Base.Extent()
	return last - first
}

// Flatten implements Datatype.
func (t Hindexed) Flatten() []interval.Extent {
	be := t.Base.Extent()
	base, dense := flattenBase(t.Base)
	var out []interval.Extent
	if dense {
		out = make([]interval.Extent, 0, len(t.BlockLens))
	}
	for i, bl := range t.BlockLens {
		if dense {
			out = coalesce(out, interval.Extent{Off: t.DispBytes[i], Len: int64(bl) * t.Base.Size()})
			continue
		}
		for j := 0; j < bl; j++ {
			out = appendShifted(out, base, t.DispBytes[i]+int64(j)*be)
		}
	}
	return out
}

// String implements Datatype.
func (t Hindexed) String() string {
	return fmt.Sprintf("hindexed(%d blocks, %s)", len(t.BlockLens), t.Base)
}

// FromExtents builds an hindexed byte type covering exactly the given
// extents, which must be in increasing, non-overlapping order. It is the
// inverse of Flatten for byte-based types and is how the rank-ordering
// strategy materializes a clipped file view as a datatype again.
func FromExtents(extents []interval.Extent) Hindexed {
	blockLens := make([]int, len(extents))
	disps := make([]int64, len(extents))
	for i, e := range extents {
		blockLens[i] = int(e.Len)
		disps[i] = e.Off
	}
	return NewHindexed(blockLens, disps, Byte)
}
