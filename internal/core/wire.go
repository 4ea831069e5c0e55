package core

import (
	"encoding/binary"
	"fmt"

	"atomio/internal/interval"
	"atomio/internal/mpi"
)

// EncodeExtents serializes an extent list as little-endian (off, len) int64
// pairs: 16 bytes per extent, the size ExchangeViews prices a view at.
// Kept only as the pin of atombench's core.wire_ns_per_extent probe.
func EncodeExtents(l interval.List) []byte {
	b := make([]byte, 16*len(l))
	for i, e := range l {
		binary.LittleEndian.PutUint64(b[16*i:], uint64(e.Off))
		binary.LittleEndian.PutUint64(b[16*i+8:], uint64(e.Len))
	}
	return b
}

// DecodeExtents reverses EncodeExtents. Wire bytes never panic: a payload
// that is not a whole number of pairs is an error.
// Kept only as the pin of atombench's core.wire_ns_per_extent probe.
func DecodeExtents(b []byte) (interval.List, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("core: extent payload of %d bytes is not a multiple of 16", len(b))
	}
	out := make(interval.List, len(b)/16)
	for i := range out {
		out[i].Off = int64(binary.LittleEndian.Uint64(b[16*i:]))
		out[i].Len = int64(binary.LittleEndian.Uint64(b[16*i+8:]))
	}
	return out, nil
}

// shared evaluates compute once for the whole communicator (see
// mpi.Comm.Shared) and returns the one read-only value on every rank. It is
// how the handshake algebra — a pure function of the allgathered views that
// the paper has every process evaluate locally — is computed once per
// collective on the host while staying local, and free, in virtual time.
func shared[T any](comm *mpi.Comm, compute func() T) T {
	return comm.Shared(func() any { return compute() }).(T)
}

// ExchangeViews allgathers every rank's file extents — the process
// handshake both the coloring and ordering strategies start with. The
// result is indexed by rank. Extents are sent in canonical form, priced as
// the 16 bytes per extent EncodeExtents would put on the wire.
//
// Views travel by reference: row r of the result is rank r's own canonical
// list (its request itself when that is already canonical), and the result
// is the same table on every rank. All of it is read-only.
func ExchangeViews(comm *mpi.Comm, mine interval.List) []interval.List {
	mine = mine.Normalize()
	return mpi.AllgatherOf(comm, mine, 16*int64(len(mine)))
}

// ExchangeSpans allgathers only each rank's bounding span — the cheaper,
// conservative handshake sufficient to build an overlap matrix when views
// are known to be interval-like. Used by the handshake-cost ablation (A5).
// A span is priced as its two int64s; the result, as ExchangeViews', is one
// read-only table shared by every rank.
func ExchangeSpans(comm *mpi.Comm, mine interval.List) []interval.Extent {
	return mpi.AllgatherOf(comm, mine.Span(), 16)
}
