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
