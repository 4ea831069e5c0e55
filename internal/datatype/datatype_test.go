package datatype

import (
	"fmt"
	"testing"

	"atomio/internal/interval"
)

// ext abbreviates extent construction in expected values.
func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

// checkFlat asserts the basic well-formedness invariants of a flattened type
// map: logical order = increasing file order (true for every type used in
// this repository), no overlaps, no empty or touching segments (coalesced),
// and total length equal to Size().
func checkFlat(t *testing.T, dt Datatype) []interval.Extent {
	t.Helper()
	flat := dt.Flatten()
	var total int64
	for i, s := range flat {
		if s.Empty() {
			t.Fatalf("%s: empty segment %d", dt, i)
		}
		if i > 0 && flat[i-1].End() >= s.Off {
			t.Fatalf("%s: segments %d,%d overlap/touch/out-of-order: %v %v",
				dt, i-1, i, flat[i-1], s)
		}
		total += s.Len
	}
	if total != dt.Size() {
		t.Fatalf("%s: flattened %d bytes, Size() = %d", dt, total, dt.Size())
	}
	return flat
}

// padded is a test-only datatype with the holes MPI's resized and indexed
// types make and no production view has: Base's type map shifted by Lead
// bytes inside an extent of Ext bytes.
type padded struct {
	Base      Datatype
	Lead, Ext int64
}

func (t padded) Size() int64   { return t.Base.Size() }
func (t padded) Extent() int64 { return t.Ext }
func (t padded) Flatten() []interval.Extent {
	flat := t.Base.Flatten()
	for i := range flat {
		flat[i].Off += t.Lead
	}
	return flat
}
func (t padded) String() string { return fmt.Sprintf("padded(%s, %d, %d)", t.Base, t.Lead, t.Ext) }

func TestByte(t *testing.T) {
	if Byte.Size() != 1 || Byte.Extent() != 1 {
		t.Fatal("Byte size/extent != 1")
	}
	flat := checkFlat(t, Byte)
	if len(flat) != 1 || flat[0] != (ext(0, 1)) {
		t.Fatalf("Byte flatten = %v", flat)
	}
	if Byte.String() != "byte" {
		t.Fatalf("Byte String = %q", Byte.String())
	}
}

func TestElem(t *testing.T) {
	d := Elem{8, "double"}
	if _, dense := flattenBase(d); d.Size() != 8 || !dense {
		t.Fatal("double elem wrong")
	}
	if (Elem{0, ""}).Flatten() != nil {
		t.Fatal("zero-width elem should flatten to nothing")
	}
	if (Elem{4, ""}).String() != "elem(4)" {
		t.Fatal("unnamed elem String wrong")
	}
}

func TestContiguous(t *testing.T) {
	c := NewContiguous(10, Byte)
	if c.Size() != 10 || c.Extent() != 10 {
		t.Fatalf("size/extent = %d/%d", c.Size(), c.Extent())
	}
	flat := checkFlat(t, c)
	if len(flat) != 1 || flat[0] != (ext(0, 10)) {
		t.Fatalf("contiguous of dense base should be one segment: %v", flat)
	}
	if got := NewContiguous(0, Byte).Flatten(); got != nil {
		t.Fatalf("empty contiguous flatten = %v", got)
	}
}

func TestContiguousOfSparseBase(t *testing.T) {
	// Base: 2 bytes at offset 0 within extent 5.
	base := padded{Base: NewContiguous(2, Byte), Ext: 5}
	c := NewContiguous(3, base)
	if c.Size() != 6 || c.Extent() != 15 {
		t.Fatalf("size/extent = %d/%d", c.Size(), c.Extent())
	}
	flat := checkFlat(t, c)
	want := []interval.Extent{ext(0, 2), ext(5, 2), ext(10, 2)}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v, want %v", flat, want)
		}
	}
}

func TestNegativeContiguousPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewContiguous(-1, Byte)
}

func TestSubarrayColumnWise(t *testing.T) {
	// The paper's Figure 4 view: an M x N array partitioned column-wise.
	// M=4 rows, N=12 columns, sub-block 4x3 starting at column 3:
	// rows at offsets 3, 15, 27, 39, each 3 bytes.
	sa := NewSubarray([]int{4, 12}, []int{4, 3}, []int{0, 3}, Byte)
	if sa.Size() != 12 {
		t.Fatalf("size = %d", sa.Size())
	}
	if sa.Extent() != 48 { // whole array
		t.Fatalf("extent = %d", sa.Extent())
	}
	flat := checkFlat(t, sa)
	want := []interval.Extent{ext(3, 3), ext(15, 3), ext(27, 3), ext(39, 3)}
	if len(flat) != len(want) {
		t.Fatalf("flat = %v, want %v", flat, want)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v, want %v", flat, want)
		}
	}
}

func TestSubarrayRowWiseIsContiguous(t *testing.T) {
	// Row-wise partition: full-width rows coalesce into one segment
	// (paper §3.2: the row-wise file view covers a contiguous file space).
	sa := NewSubarray([]int{8, 16}, []int{3, 16}, []int{2, 0}, Byte)
	flat := checkFlat(t, sa)
	if len(flat) != 1 || flat[0] != (ext(32, 48)) {
		t.Fatalf("row-wise view should be one contiguous segment: %v", flat)
	}
}

func TestSubarray3D(t *testing.T) {
	// 3-D 4x4x4 array, 2x2x2 block at (1,1,1).
	sa := NewSubarray([]int{4, 4, 4}, []int{2, 2, 2}, []int{1, 1, 1}, Byte)
	flat := checkFlat(t, sa)
	want := []interval.Extent{ext(21, 2), ext(25, 2), ext(37, 2), ext(41, 2)}
	if len(flat) != len(want) {
		t.Fatalf("flat = %v, want %v", flat, want)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v, want %v", flat, want)
		}
	}
}

func TestSubarrayWithWideElem(t *testing.T) {
	// 8-byte elements: offsets scale by the element width.
	sa := NewSubarray([]int{2, 4}, []int{2, 2}, []int{0, 1}, Elem{8, "double"})
	flat := checkFlat(t, sa)
	want := []interval.Extent{ext(8, 16), ext(40, 16)}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v, want %v", flat, want)
		}
	}
}

func TestSubarrayEmpty(t *testing.T) {
	sa := NewSubarray([]int{4, 4}, []int{0, 2}, []int{0, 0}, Byte)
	if got := sa.Flatten(); got != nil {
		t.Fatalf("empty subarray flatten = %v", got)
	}
	sa = NewSubarray([]int{4, 4}, []int{2, 0}, []int{0, 0}, Byte)
	if got := sa.Flatten(); got != nil {
		t.Fatalf("empty subarray flatten = %v", got)
	}
}

func TestSubarrayValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"dim mismatch": func() { NewSubarray([]int{4}, []int{1, 1}, []int{0}, Byte) },
		"overhang":     func() { NewSubarray([]int{4, 4}, []int{2, 3}, []int{0, 2}, Byte) },
		"neg start":    func() { NewSubarray([]int{4}, []int{1}, []int{-1}, Byte) },
		"zero size":    func() { NewSubarray([]int{0}, []int{0}, []int{0}, Byte) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFlattenBaseDense(t *testing.T) {
	for _, tc := range []struct {
		dt    Datatype
		dense bool
	}{
		{NewContiguous(3, Byte), true},
		{NewSubarray([]int{2, 4}, []int{2, 4}, []int{0, 0}, Byte), true},
		{NewSubarray([]int{2, 4}, []int{1, 4}, []int{1, 0}, Byte), false},
		{padded{Base: NewContiguous(3, Byte), Ext: 8}, false},
		// Equal size and extent, but the data starts past offset 0.
		{padded{Base: NewContiguous(2, Byte), Lead: 1, Ext: 2}, false},
	} {
		if _, dense := flattenBase(tc.dt); dense != tc.dense {
			t.Errorf("%s: dense = %v, want %v", tc.dt, dense, tc.dense)
		}
	}
}

func TestStringers(t *testing.T) {
	// Smoke-test every String implementation.
	for _, dt := range []Datatype{
		NewContiguous(2, Byte),
		NewSubarray([]int{2}, []int{1}, []int{0}, Byte),
	} {
		if dt.String() == "" {
			t.Errorf("%T has empty String()", dt)
		}
	}
}

// TestFlattenAllocatesOneListAtItsSize pins the subarray walk to one
// allocation, the result, at exactly its length — however many rows
// coalesce — beside whatever the base's own Flatten allocates.
func TestFlattenAllocatesOneListAtItsSize(t *testing.T) {
	sparse := padded{Base: NewContiguous(2, Byte), Ext: 3}
	for _, tc := range []struct {
		name string
		sa   Subarray
		want int
	}{
		{"column-wise 4096 rows", NewSubarray([]int{4096, 4096}, []int{4096, 64}, []int{0, 128}, Byte), 4096},
		// Rows of the two full trailing dimensions coalesce across a
		// carry of dimension 1 into one extent per index of dimension 0.
		{"3-D full trailing dims", NewSubarray([]int{6, 5, 8}, []int{3, 5, 8}, []int{1, 0, 0}, Elem{4, ""}), 1},
		{"3-D partial middle dim", NewSubarray([]int{6, 5, 8}, []int{3, 2, 8}, []int{1, 3, 0}, Byte), 3},
		{"non-dense base", NewSubarray([]int{4, 6}, []int{3, 4}, []int{1, 1}, sparse), 12},
	} {
		flat := checkFlat(t, tc.sa)
		if len(flat) != tc.want || cap(flat) != len(flat) {
			t.Errorf("%s: %d extents, cap %d; want %d at cap %d", tc.name, len(flat), cap(flat), tc.want, tc.want)
		}
		var base float64
		if _, ok := tc.sa.Base.(Elem); !ok {
			base = testing.AllocsPerRun(10, func() { tc.sa.Base.Flatten() })
		}
		if got := testing.AllocsPerRun(10, func() { tc.sa.Flatten() }); got != base+1 {
			t.Errorf("%s: Flatten allocates %v objects, want 1 beyond the base's %v", tc.name, got, base)
		}
	}
}
