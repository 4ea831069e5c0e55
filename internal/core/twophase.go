package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"atomio/internal/fileview"
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
	"atomio/internal/trace"
)

// TwoPhase is two-phase collective I/O (ROMIO's collective buffering)
// extended into an atomicity strategy — the natural follow-on to the
// paper's handshaking methods. Ranks exchange file views, the aggregate
// span is split into P contiguous, disjoint *file domains*, and an exchange
// phase routes every rank's data to the domain owners (alltoall). Each
// owner merges the pieces it received — resolving overlaps with the same
// highest-rank-wins rule as RankOrder — and issues one mostly-contiguous
// write for its domain.
//
// MPI atomicity holds by construction: file domains are disjoint, so after
// the exchange no two processes write the same byte, and every contested
// byte carries the highest writer's data (a serialization in rank order).
// The performance trade is network exchange volume against far fewer
// non-contiguous file segments per writer.
type TwoPhase struct{}

// Name implements Strategy.
func (TwoPhase) Name() string { return "twophase" }

// WriteAll implements Strategy.
func (TwoPhase) WriteAll(ctx *Context, buf []byte, maps []fileview.Mapping) error {
	comm := ctx.Comm
	p := comm.Size()
	mine := ExtentsOf(maps)

	hs := ctx.span(trace.PhaseHandshake)
	defer hs.Stop()
	views, err := ExchangeViews(comm, mine)
	if err != nil {
		return err
	}
	// The aggregate span is the span of the per-view spans; it is empty
	// exactly when every (canonical) view is.
	spans := make(interval.List, len(views))
	for r, v := range views {
		spans[r] = v.Span()
	}
	span := spans.Span()
	hs.Stop()
	if span.Empty() {
		// Nothing to write anywhere; only the collective's closing
		// synchronization remains.
		sw := ctx.span(trace.PhaseSyncWait)
		comm.Barrier()
		sw.Stop()
		return nil
	}
	domains := fileDomains(span, p)
	if buf == nil {
		// The exchange ships real bytes by design, so a timing-only
		// request becomes a zero request here: the routed messages keep
		// the size they have when the application passes a buffer.
		var n int64
		for _, m := range maps {
			n = max(n, m.Buf+m.File.Len)
		}
		buf = make([]byte, n)
	}

	// Phase 1: route each of my segments to the domain owners. Domains are
	// sorted and disjoint, so each segment binary-searches its first owner
	// and walks forward only while domains still intersect it — O(log P +
	// owners touched) per segment instead of intersecting all P domains.
	// The routing runs twice: once to size every owner's payload, once to
	// fill it, so no payload grows by doubling.
	route := func(piece func(owner int, ov interval.Extent, data []byte)) {
		for _, m := range maps {
			lo := sort.Search(len(domains), func(i int) bool { return domains[i].End() > m.File.Off })
			for owner := lo; owner < len(domains) && domains[owner].Off < m.File.End(); owner++ {
				ov := m.File.Intersect(domains[owner])
				if ov.Empty() {
					continue
				}
				piece(owner, ov, buf[m.Buf+(ov.Off-m.File.Off):m.Buf+(ov.Off-m.File.Off)+ov.Len])
			}
		}
	}
	sizes := make([]int64, p)
	route(func(owner int, ov interval.Extent, _ []byte) { sizes[owner] += pieceHeader + ov.Len })
	parts := make([][]byte, p)
	for owner, n := range sizes {
		if n > 0 {
			parts[owner] = make([]byte, 0, n)
		}
	}
	route(func(owner int, ov interval.Extent, data []byte) {
		parts[owner] = appendPiece(parts[owner], ov.Off, data)
	})
	ex := ctx.span(trace.PhaseExchange)
	recv := comm.Alltoall(parts)
	ex.Stop()

	// Phase 2: merge received pieces highest-rank-wins and write my domain.
	segs, err := mergePieces(recv, domains[comm.Rank()])
	if err != nil {
		return err
	}
	k, crashed := ctx.crashPoint(len(segs))
	xfer := ctx.span(trace.PhaseTransfer)
	ctx.Client.WriteV(segs[:k])
	if crashed {
		// The domain owner dies between the exchange and its domain
		// write — the partial two-phase commit. The unissued segments
		// become damage; the collective still completes (barrier below)
		// so the surviving ranks return.
		ctx.Client.Damage(segExtents(segs[k:]))
	}
	ctx.Client.Sync()
	ctx.Client.Invalidate()
	xfer.Stop()
	sw := ctx.span(trace.PhaseSyncWait)
	comm.Barrier()
	sw.Stop()
	return nil
}

// fileDomains splits span into n contiguous disjoint domains of near-equal
// size (the last absorbs the remainder). Domains may be empty when the span
// is smaller than n bytes.
func fileDomains(span interval.Extent, n int) []interval.Extent {
	out := make([]interval.Extent, n)
	chunk := span.Len / int64(n)
	off := span.Off
	for i := 0; i < n; i++ {
		l := chunk
		if i == n-1 {
			l = span.End() - off
		}
		out[i] = interval.Extent{Off: off, Len: l}
		off += l
	}
	return out
}

// pieceHeader is the size of a routed piece's (offset, length) header.
const pieceHeader = 16

// appendPiece encodes one (offset, data) piece onto a routing payload.
func appendPiece(payload []byte, off int64, data []byte) []byte {
	payload = binary.LittleEndian.AppendUint64(payload, uint64(off))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(data)))
	return append(payload, data...)
}

// decodePieces reverses appendPiece.
func decodePieces(payload []byte) ([]pfs.Segment, error) {
	var out []pfs.Segment
	for len(payload) > 0 {
		if len(payload) < pieceHeader {
			return nil, fmt.Errorf("core: truncated two-phase piece header")
		}
		off := int64(binary.LittleEndian.Uint64(payload))
		n := int64(binary.LittleEndian.Uint64(payload[8:]))
		payload = payload[pieceHeader:]
		if n < 0 || n > int64(len(payload)) {
			return nil, fmt.Errorf("core: truncated two-phase piece body")
		}
		out = append(out, pfs.Segment{Off: off, Data: payload[:n]})
		payload = payload[n:]
	}
	return out, nil
}

// mergePieces combines the pieces received from every rank (indexed by
// source rank) into disjoint segments covering at most the owner's domain,
// with bytes from the highest sending rank winning every overlap. Pieces
// are processed from the highest rank down; each claims only the bytes not
// yet covered, tracked in an index.Set whose Add returns exactly the newly
// covered parts — O(log n) per piece instead of a full-list subtract and
// re-union.
func mergePieces(recv [][]byte, domain interval.Extent) ([]pfs.Segment, error) {
	var covered index.Set
	var segs []pfs.Segment
	for src := len(recv) - 1; src >= 0; src-- {
		pieces, err := decodePieces(recv[src])
		if err != nil {
			return nil, fmt.Errorf("from rank %d: %w", src, err)
		}
		for _, piece := range pieces {
			ext := interval.Extent{Off: piece.Off, Len: piece.Len()}.Intersect(domain)
			for _, keep := range covered.Add(ext) {
				segs = append(segs, pfs.Segment{
					Off:  keep.Off,
					Data: piece.Data[keep.Off-piece.Off : keep.End()-piece.Off],
				})
			}
		}
	}
	slices.SortFunc(segs, func(a, b pfs.Segment) int { return cmp.Compare(a.Off, b.Off) })
	return segs, nil
}

var _ Strategy = TwoPhase{}
