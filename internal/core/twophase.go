package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// owner merges the pieces it received through index.Winners(views) — the
// one highest-rank-wins map, shared per collective, that RankOrder's clips
// are grouped from — and issues one mostly-contiguous write for its domain.
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
	// Who owns which byte is the same on every rank: one sweep, shared.
	owners := shared(comm, func() []index.Owned { return index.Winners(views) })
	hs.Stop()
	if len(owners) == 0 {
		// Nothing to write anywhere; only the collective's closing
		// synchronization remains.
		sw := ctx.span(trace.PhaseSyncWait)
		comm.Barrier()
		sw.Stop()
		return nil
	}
	// The runs cover what the views cover: first to last is the aggregate span.
	span := interval.Extent{Off: owners[0].Off, Len: owners[len(owners)-1].End() - owners[0].Off}
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
	segs, err := mergePieces(recv, domains[comm.Rank()], owners)
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

// pieceCursor reads one source's payload front to back, a piece at a time.
type pieceCursor struct {
	rest []byte // the payload after the current piece
	off  int64  // the current piece lands at off
	data []byte
}

func (c *pieceCursor) end() int64 { return c.off + int64(len(c.data)) }

// next reverses appendPiece for the first piece of c.rest and makes it the
// current one. Pieces arrive in file order because fileview mappings are;
// one that starts before after — where its predecessor ended — is an error.
func (c *pieceCursor) next(after int64) error {
	if len(c.rest) < pieceHeader {
		return fmt.Errorf("core: truncated two-phase piece header")
	}
	off := int64(binary.LittleEndian.Uint64(c.rest))
	n := int64(binary.LittleEndian.Uint64(c.rest[8:]))
	body := c.rest[pieceHeader:]
	switch {
	case n < 0 || n > int64(len(body)):
		return fmt.Errorf("core: truncated two-phase piece body (%d of %d bytes)", len(body), n)
	case off < after:
		return fmt.Errorf("core: two-phase piece at %d is out of order: its predecessor ends at %d", off, after)
	}
	c.off, c.data, c.rest = off, body[:n], body[n:]
	return nil
}

// mergePieces combines the pieces received from every rank (indexed by
// source rank) into disjoint, offset-sorted segments covering at most the
// owner's domain, with bytes from the highest sending rank winning every
// overlap. It decides nothing itself: it walks the runs of owners — the
// collective's shared index.Winners map — inside the domain with one cursor
// per source, emitting one segment per (piece ∩ run). A payload that is
// malformed, out of file order, or short of a run its sender's view wins is
// an error naming the sender, never a panic.
func mergePieces(recv [][]byte, domain interval.Extent, owners []index.Owned) (segs []pfs.Segment, err error) {
	cursors := make([]pieceCursor, len(recv))
	for src, payload := range recv {
		cursors[src] = pieceCursor{rest: payload, off: math.MinInt64}
	}
	lo := sort.Search(len(owners), func(i int) bool { return owners[i].End() > domain.Off })
	hi := max(lo, sort.Search(len(owners), func(i int) bool { return owners[i].Off >= domain.End() }))
	segs = make([]pfs.Segment, 0, hi-lo) // exact unless a run spans several pieces
	for _, o := range owners[lo:hi] {
		c, run := &cursors[o.Rank], o.Intersect(domain)
		for at := run.Off; at < run.End() && err == nil; {
			switch {
			case c.end() <= at && len(c.rest) > 0: // wholly before at: lost to higher ranks, or merged
				err = c.next(c.end())
			case c.end() <= at || c.off > at:
				err = fmt.Errorf("core: two-phase pieces do not cover %v from %d, which the sender's view wins", run, at)
			default:
				n := min(c.end(), run.End())
				segs = append(segs, pfs.Segment{Off: at, Data: c.data[at-c.off : n-c.off]})
				at = n
			}
		}
		if err != nil {
			return nil, fmt.Errorf("from rank %d: %w", o.Rank, err)
		}
	}
	return segs, nil // pieces never reached lost to higher ranks: unread
}

var _ Strategy = TwoPhase{}
