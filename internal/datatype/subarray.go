package datatype

import (
	"fmt"
	"slices"

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

// stackDims is the rank up to which Flatten keeps its walk on the stack.
const stackDims = 8

// walkDim is one dimension of Flatten's walk: count positions, step bytes
// apart, and the current position's index.
type walkDim struct{ count, step, idx int64 }

// Flatten implements Datatype.
//
// The walk lays down one unit at each position of an odometer over the
// sub-block's leading dimensions, row-major. For a dense base the unit is a
// whole row, one segment of Subsizes[N-1]*base bytes; otherwise it is the
// base's type map, and the last dimension is walked element by element.
// Each position's offset advances by the innermost step and carries only
// where a dimension wraps. Segments that touch coalesce as they are laid
// down: adjacent rows do when the sub-block spans the full width of the
// trailing dimensions. The list is allocated once, at its size.
func (t Subarray) Flatten() []interval.Extent {
	return walk(t.Sizes, t.Subsizes, t.Starts, t.Base)
}

// walk is Flatten on the subarray's fields: the base alone leaks, so a
// caller's dimensions stay on its stack.
func walk(sizes, subsizes, starts []int, base Datatype) []interval.Extent {
	nd := len(sizes)
	be, bs := base.Extent(), base.Size()
	if bs <= 0 || slices.Contains(subsizes, 0) {
		return nil
	}
	var stack [stackDims]walkDim
	dims := stack[:]
	if nd > stackDims {
		dims = make([]walkDim, nd)
	}
	dims = dims[:nd]
	off, stride := int64(0), be // the first position's offset; dimension d's step
	for d := nd - 1; d >= 0; d-- {
		dims[d] = walkDim{count: int64(subsizes[d]), step: stride}
		off += int64(starts[d]) * stride
		stride *= int64(sizes[d])
	}
	var whole [1]interval.Extent
	unit, dense := flattenBase(base)
	if dense {
		whole[0] = interval.Extent{Len: dims[nd-1].count * bs}
		unit, dims = whole[:], dims[:nd-1]
	}

	out := make([]interval.Extent, flatLen(dims, unit))
	n, end := 0, int64(0) // the extents laid down, and where the last one ends
	for {
		for _, s := range unit {
			if n > 0 && off+s.Off == end {
				out[n-1].Len += s.Len
			} else {
				out[n] = s.Shift(off)
				n++
			}
			end = off + s.End()
		}
		d := len(dims) - 1
		for ; d >= 0; d-- {
			w := &dims[d]
			off += w.step
			if w.idx++; w.idx < w.count {
				break
			}
			w.idx = 0
			off -= w.count * w.step
		}
		if d < 0 {
			return out[:n]
		}
	}
}

// flatLen returns the number of extents Flatten lays down: every segment of
// unit at every position, less each pair of successive positions whose
// units touch. They touch when the offset advances by exactly the unit's
// span, and the advance depends only on the dimension that steps.
func flatLen(dims []walkDim, unit []interval.Extent) int {
	positions := int64(1)
	for _, w := range dims {
		positions *= w.count
	}
	n := positions * int64(len(unit))
	span := unit[len(unit)-1].End() - unit[0].Off
	inner, back := int64(1), int64(0) // positions per step of d; the offset a carry into d rewinds
	for d := len(dims) - 1; d >= 0; d-- {
		w := dims[d]
		if w.step-back == span {
			n -= positions / (inner * w.count) * (w.count - 1)
		}
		inner *= w.count
		back += (w.count - 1) * w.step
	}
	return int(n)
}

// String implements Datatype.
func (t Subarray) String() string {
	return fmt.Sprintf("subarray(%v, %v, %v, %s)", t.Sizes, t.Subsizes, t.Starts, t.Base)
}
