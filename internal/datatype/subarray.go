package datatype

import (
	"fmt"

	"atomio/internal/interval"
)

// Subarray selects an N-dimensional sub-block of an N-dimensional array of
// base elements, in C (row-major) order: dimension 0 is the most significant
// axis, the last dimension is contiguous in memory/file
// (MPI_Type_create_subarray with MPI_ORDER_C).
//
// This is the constructor the paper's Figure 4 code uses to build the
// column-wise file views.
type Subarray struct {
	Sizes    []int // full array dimensions
	Subsizes []int // sub-block dimensions
	Starts   []int // sub-block origin
	Base     Datatype
}

// NewSubarray constructs a subarray type after validating that the sub-block
// fits inside the array.
func NewSubarray(sizes, subsizes, starts []int, base Datatype) Subarray {
	n := len(sizes)
	if n == 0 || len(subsizes) != n || len(starts) != n {
		panic(fmt.Sprintf("datatype: subarray dimension mismatch %d/%d/%d",
			len(sizes), len(subsizes), len(starts)))
	}
	for d := 0; d < n; d++ {
		if sizes[d] <= 0 {
			panic(fmt.Sprintf("datatype: subarray size[%d] = %d", d, sizes[d]))
		}
		if subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			panic(fmt.Sprintf("datatype: subarray dim %d: sub %d at %d exceeds size %d",
				d, subsizes[d], starts[d], sizes[d]))
		}
	}
	// One array holds the three, each slice capped at its own part.
	dims := make([]int, 0, 3*n)
	dims = append(append(append(dims, sizes...), subsizes...), starts...)
	return Subarray{
		Sizes:    dims[:n:n],
		Subsizes: dims[n : 2*n : 2*n],
		Starts:   dims[2*n:],
		Base:     base,
	}
}

// Size implements Datatype.
func (t Subarray) Size() int64 {
	n := int64(1)
	for _, s := range t.Subsizes {
		n *= int64(s)
	}
	return n * t.Base.Size()
}

// Extent implements Datatype.
//
// Per MPI, the extent of a subarray type is the extent of the *whole* array,
// so that tiling the filetype repeats whole-array slabs.
func (t Subarray) Extent() int64 {
	n := int64(1)
	for _, s := range t.Sizes {
		n *= int64(s)
	}
	return n * t.Base.Extent()
}

// stackDims is the rank up to which Flatten keeps its scratch on the stack.
const stackDims = 8

// Flatten implements Datatype.
//
// For a dense base the last dimension yields one segment per "row" of the
// sub-block: prod(Subsizes[:N-1]) segments of Subsizes[N-1]*base bytes.
// Adjacent rows coalesce automatically when the sub-block spans the full
// width of the trailing dimensions.
func (t Subarray) Flatten() []interval.Extent {
	nd := len(t.Sizes)
	be := t.Base.Extent()

	// strides[d]: distance in elements between successive indices in dim d;
	// idx: the current row index per leading dimension. Both live on the
	// stack up to stackDims dimensions.
	var stackStrides [stackDims]int64
	var stackIdx [stackDims - 1]int
	strides := append(stackStrides[:0], make([]int64, nd)...)
	idx := append(stackIdx[:0], make([]int, nd-1)...)
	strides[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(t.Sizes[d+1])
	}

	rowElems := int64(t.Subsizes[nd-1])
	if rowElems == 0 {
		return nil
	}
	// Count the rows (all dims but the last).
	rows := int64(1)
	for d := 0; d < nd-1; d++ {
		if t.Subsizes[d] == 0 {
			return nil
		}
		rows *= int64(t.Subsizes[d])
	}

	baseFlat, dense := flattenBase(t.Base)
	var out []interval.Extent
	if dense {
		out = make([]interval.Extent, 0, rows)
	}
	for r := int64(0); r < rows; r++ {
		// Element offset of this row's first element.
		elemOff := int64(t.Starts[nd-1])
		for d := 0; d < nd-1; d++ {
			elemOff += int64(t.Starts[d]+idx[d]) * strides[d]
		}
		if dense {
			out = coalesce(out, interval.Extent{Off: elemOff * be, Len: rowElems * t.Base.Size()})
		} else {
			for j := int64(0); j < rowElems; j++ {
				out = appendShifted(out, baseFlat, (elemOff+j)*be)
			}
		}
		// Advance the row index odometer (row-major).
		for d := nd - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < t.Subsizes[d] {
				break
			}
			idx[d] = 0
		}
	}
	return out
}

// String implements Datatype.
func (t Subarray) String() string {
	return fmt.Sprintf("subarray(%v, %v, %v, %s)", t.Sizes, t.Subsizes, t.Starts, t.Base)
}
