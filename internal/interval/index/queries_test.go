package index

// Queries only the tests ask of an index.

import "atomio/internal/interval"

// Stab visits every stored extent containing offset off, in (Off, Handle)
// order, with the same early-stop contract as Overlapping.
func (ix *Index[T]) Stab(off int64, visit func(e interval.Extent, h Handle, v T) bool) bool {
	return ix.Overlapping(interval.Extent{Off: off, Len: 1}, visit)
}
