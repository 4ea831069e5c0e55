package core

import (
	"encoding/binary"
	"fmt"

	"atomio/internal/interval"
	"atomio/internal/mpi"
)

// EncodeExtents serializes an extent list as little-endian (off, len) int64
// pairs for the view-exchange handshake: 16 bytes per extent, written once.
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
// result is indexed by rank. Extents are sent in canonical form.
//
// Every rank receives the same payloads, so they are decoded once and the
// decoded views are shared: the result is the same slice on every rank and
// is read-only.
func ExchangeViews(comm *mpi.Comm, mine interval.List) ([]interval.List, error) {
	all := comm.Allgather(EncodeExtents(mine.Normalize()))
	type decoded struct {
		views []interval.List
		err   error
	}
	d := shared(comm, func() decoded {
		views := make([]interval.List, len(all))
		for r, b := range all {
			l, err := DecodeExtents(b)
			if err != nil {
				return decoded{err: fmt.Errorf("rank %d: %w", r, err)}
			}
			views[r] = l
		}
		return decoded{views: views}
	})
	return d.views, d.err
}

// ExchangeSpans allgathers only each rank's bounding span — the cheaper,
// conservative handshake sufficient to build an overlap matrix when views
// are known to be interval-like. Used by the handshake-cost ablation (A5).
// Like ExchangeViews it decodes once and shares the read-only result.
func ExchangeSpans(comm *mpi.Comm, mine interval.List) ([]interval.Extent, error) {
	span := mine.Span()
	all := comm.Allgather(mpi.EncodeInt64s(span.Off, span.Len))
	type decoded struct {
		spans []interval.Extent
		err   error
	}
	d := shared(comm, func() decoded {
		spans := make([]interval.Extent, len(all))
		for r, b := range all {
			vals := mpi.DecodeInt64s(b)
			if len(vals) != 2 {
				return decoded{err: fmt.Errorf("core: bad span payload from rank %d", r)}
			}
			spans[r] = interval.Extent{Off: vals[0], Len: vals[1]}
		}
		return decoded{spans: spans}
	})
	return d.spans, d.err
}
