package mpi

import "fmt"

// EncodeInt64s encodes vals as a message payload.
func EncodeInt64s(vals ...int64) []byte { return putInt64s(nil, vals...) }

// DecodeInt64s decodes every int64 in the payload.
func DecodeInt64s(buf []byte) []int64 {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("mpi: int64 payload length %d not a multiple of 8", len(buf)))
	}
	return getInt64s(buf, len(buf)/8)
}
