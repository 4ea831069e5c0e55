package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Typed payload helpers. Messages are byte slices; these helpers encode and
// decode the small fixed-width integer payloads the atomicity handshakes
// exchange (file offsets, counts, colors). Little-endian throughout.

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

// EncodeInt64s encodes vals as a message payload.
func EncodeInt64s(vals ...int64) []byte { return putInt64s(nil, vals...) }

// DecodeInt64s decodes every int64 in the payload.
func DecodeInt64s(buf []byte) []int64 {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("mpi: int64 payload length %d not a multiple of 8", len(buf)))
	}
	return getInt64s(buf, len(buf)/8)
}
