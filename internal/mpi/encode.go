package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Integer payload helpers. Messages are byte slices; these helpers encode
// and decode the fixed-width integers Dup broadcasts (a context id).
// Little-endian throughout.

// putInt64s appends vals to buf in little-endian order and returns buf.
func putInt64s(buf []byte, vals ...int64) []byte {
	buf = slices.Grow(buf, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// getInt64s decodes exactly n little-endian int64s from buf.
func getInt64s(buf []byte, n int) []int64 {
	if len(buf) < 8*n {
		panic(fmt.Sprintf("mpi: payload too short: %d bytes, want %d", len(buf), 8*n))
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}
