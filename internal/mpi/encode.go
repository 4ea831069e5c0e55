package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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

// encodeBundle serializes a set of (rank, payload) pairs for tree-based
// gather. Layout: count, then per entry rank, length, bytes.
func encodeBundle(m map[int][]byte) []byte {
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ranks)))
	for _, r := range ranks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m[r])))
		buf = append(buf, m[r]...)
	}
	return buf
}

// decodeBundle reverses encodeBundle.
func decodeBundle(buf []byte) map[int][]byte {
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	out := make(map[int][]byte, n)
	for i := uint32(0); i < n; i++ {
		r := binary.LittleEndian.Uint32(buf)
		l := binary.LittleEndian.Uint32(buf[4:])
		buf = buf[8:]
		d := make([]byte, l)
		copy(d, buf[:l])
		buf = buf[l:]
		out[int(r)] = d
	}
	return out
}

// Standard reduction operators over little-endian int64 payloads.

// OpSumInt64 adds int64 vectors elementwise.
func OpSumInt64(dst, src []byte) { combineInt64(dst, src, func(a, b int64) int64 { return a + b }) }

// OpMaxInt64 takes the elementwise maximum of int64 vectors.
func OpMaxInt64(dst, src []byte) { combineInt64(dst, src, func(a, b int64) int64 { return max(a, b) }) }

// OpMinInt64 takes the elementwise minimum of int64 vectors.
func OpMinInt64(dst, src []byte) { combineInt64(dst, src, func(a, b int64) int64 { return min(a, b) }) }

func combineInt64(dst, src []byte, f func(a, b int64) int64) {
	if len(dst) != len(src) || len(dst)%8 != 0 {
		panic("mpi: int64 reduce payload length mismatch")
	}
	for i := 0; i < len(dst); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(f(a, b)))
	}
}

// OpBOr is a bytewise bitwise-or, used to reduce boolean bitmaps such as the
// overlap matrix W of the graph-coloring strategy.
func OpBOr(dst, src []byte) {
	if len(dst) != len(src) {
		panic("mpi: bor payload length mismatch")
	}
	for i := range dst {
		dst[i] |= src[i]
	}
}
