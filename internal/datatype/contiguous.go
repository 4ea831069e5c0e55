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

// Flatten implements Datatype: it is the walk of a one-dimensional
// subarray that selects its whole array.
func (t Contiguous) Flatten() []interval.Extent {
	dims := [2]int{t.Count, 0}
	return walk(dims[:1], dims[:1], dims[1:], t.Base)
}

// String implements Datatype.
func (t Contiguous) String() string {
	return fmt.Sprintf("contiguous(%d, %s)", t.Count, t.Base)
}
