package core

import (
	"fmt"
	"slices"
	"sort"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/mpi"
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
func (TwoPhase) WriteAll(ctx *Context, req interval.List) error {
	comm := ctx.Comm
	hs := ctx.span(trace.PhaseHandshake)
	defer hs.Stop()
	views := ExchangeViews(comm, req)
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
	domains := newFileDomains(span, comm.Size())

	// Phase 1: route each of my extents to the domain owners.
	parts := route(req, domains)
	ex := ctx.span(trace.PhaseExchange)
	recv := comm.Alltoall(parts)
	ex.Stop()

	// Phase 2: merge received pieces highest-rank-wins and write my domain.
	merged, err := mergePieces(recv, domains.at(comm.Rank()), owners, ctx.Client.KeepsWriters())
	if err != nil {
		return err
	}
	k, crashed := ctx.crashPoint(len(merged.Ext))
	xfer := ctx.span(trace.PhaseTransfer)
	ctx.Client.Write(merged.Slice(0, k))
	if crashed {
		// The domain owner dies between the exchange and its domain
		// write — the partial two-phase commit. The unissued extents
		// become damage; the collective still completes (barrier below)
		// so the surviving ranks return.
		ctx.Client.Damage(merged.Ext[k:].Normalize())
	}
	ctx.Client.Sync()
	xfer.Stop()
	sw := ctx.span(trace.PhaseSyncWait)
	comm.Barrier()
	sw.Stop()
	return nil
}

// fileDomains splits span into n contiguous disjoint domains of near-equal
// size (the last absorbs the remainder). Domains may be empty when the span
// is smaller than n bytes. They are arithmetic — any domain, and the owner
// of any offset, in O(1) — so no rank holds a list of all n.
type fileDomains struct {
	span  interval.Extent
	n     int
	chunk int64
}

func newFileDomains(span interval.Extent, n int) fileDomains {
	return fileDomains{span: span, n: n, chunk: span.Len / int64(n)}
}

// at returns domain i.
func (d fileDomains) at(i int) interval.Extent {
	off := d.span.Off + int64(i)*d.chunk
	if i == d.n-1 {
		return interval.Extent{Off: off, Len: d.span.End() - off}
	}
	return interval.Extent{Off: off, Len: d.chunk}
}

// owner returns the first domain that ends after off.
func (d fileDomains) owner(off int64) int {
	if d.chunk == 0 { // every domain but the last is empty
		return d.n - 1
	}
	return int(min(max(off-d.span.Off, 0)/d.chunk, int64(d.n-1)))
}

// pieceHeader is the size of a routed piece's (offset, length) header on the
// wire the exchange is timed as.
const pieceHeader = 16

// route cuts a request at the domain boundaries into pieces and groups them
// into one Alltoall part per owner. Extents ascend in file order and so do
// domains, so the parts come out in ascending owner order, and each extent
// starts at its first owner and walks forward only while domains still
// intersect it — O(1 + owners touched) per extent. A part's Size is what
// the wire would carry, a header plus the bytes of each piece; its Data is
// the pieces' extents, an interval.List shared with the owner, never
// copied. The walk runs twice, to count and then to fill, so each list is
// allocated once, at its size.
func route(req interval.List, domains fileDomains) []mpi.Part {
	each := func(visit func(owner int, ov interval.Extent)) {
		for _, e := range req {
			for owner := domains.owner(e.Off); owner < domains.n && domains.at(owner).Off < e.End(); owner++ {
				if ov := e.Intersect(domains.at(owner)); !ov.Empty() {
					visit(owner, ov)
				}
			}
		}
	}
	npieces, nparts, last := 0, 0, -1
	each(func(owner int, _ interval.Extent) {
		npieces++
		if owner != last {
			nparts, last = nparts+1, owner
		}
	})
	pieces, parts := make(interval.List, 0, npieces), make([]mpi.Part, 0, nparts)
	first := 0 // the current part's first piece
	each(func(owner int, ov interval.Extent) {
		if n := len(parts); n == 0 || parts[n-1].Peer != owner {
			if n > 0 {
				parts[n-1].Data = pieces[first:]
			}
			parts, first = append(parts, mpi.Part{Peer: owner}), len(pieces)
		}
		pieces = append(pieces, ov)
		parts[len(parts)-1].Size += pieceHeader + ov.Len
	})
	if n := len(parts); n > 0 {
		parts[n-1].Data = pieces[first:]
	}
	return parts
}

// mergePieces combines the parts received from every rank (in ascending
// sender order, as Alltoall delivers them) into one batch of disjoint,
// offset-sorted extents covering at most the owner's domain, with the
// pieces of the highest sending rank winning every overlap. It names the
// rank each extent's data is from whenever writers is set — the file keeps
// who wrote each byte, and the aggregator writes on other ranks' behalf.
// It decides nothing itself: it walks the runs of owners — the
// collective's shared index.Winners map — inside the domain with one
// cursor per sender, emitting one extent per (piece ∩ run). Pieces short of a run their sender's view wins are an
// error naming the sender, never a panic.
func mergePieces(recv []mpi.Part, domain interval.Extent, owners []index.Owned, writers bool) (pfs.Batch, error) {
	rest := make([]interval.List, len(recv)) // by sender's place in recv: its pieces not yet passed
	for k, pt := range recv {
		rest[k], _ = pt.Data.(interval.List)
	}
	lo := sort.Search(len(owners), func(i int) bool { return owners[i].End() > domain.Off })
	hi := max(lo, sort.Search(len(owners), func(i int) bool { return owners[i].Off >= domain.End() }))
	var merged pfs.Batch
	merged.Ext = make(interval.List, 0, hi-lo) // exact unless a run spans several pieces
	if writers {
		merged.Writers = make([]int, 0, hi-lo)
	}
	for _, o := range owners[lo:hi] {
		k, found := slices.BinarySearchFunc(recv, o.Rank, func(pt mpi.Part, rank int) int { return pt.Peer - rank })
		var ps interval.List
		if found {
			ps = rest[k]
		}
		run := o.Intersect(domain)
		for at := run.Off; at < run.End(); {
			for len(ps) > 0 && ps[0].End() <= at { // wholly before at: lost to higher ranks, or merged
				ps = ps[1:]
			}
			if len(ps) == 0 || ps[0].Off > at {
				return pfs.Batch{}, fmt.Errorf("from rank %d: core: two-phase pieces do not cover %v from %d, which the sender's view wins", o.Rank, run, at)
			}
			n := min(ps[0].End(), run.End())
			merged.Ext = append(merged.Ext, interval.Extent{Off: at, Len: n - at})
			if writers {
				merged.Writers = append(merged.Writers, o.Rank)
			}
			at = n
		}
		if found {
			rest[k] = ps
		}
	}
	return merged, nil // pieces never reached lost to higher ranks: unread
}

var _ Strategy = TwoPhase{}
