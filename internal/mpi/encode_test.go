package mpi

import (
	"encoding/binary"
	"fmt"
)

// EncodeInt64s encodes vals as a message payload, little-endian.
func EncodeInt64s(vals ...int64) []byte {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// DecodeInt64s decodes every int64 in the payload.
func DecodeInt64s(buf []byte) []int64 {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("mpi: int64 payload length %d not a multiple of 8", len(buf)))
	}
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}
