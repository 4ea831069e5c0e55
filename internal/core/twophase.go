package core

import (
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
// owner resolves only its own domain — as ROMIO's aggregators do — merging
// the shared views of the ranks that sent to it highest-rank-wins, and
// issues one mostly-contiguous write for its domain.
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
	// The aggregate span is the same on every rank: one pass, shared.
	views, span := ExchangeViews(comm, req, aggregateSpan)
	hs.Stop()
	if span.Empty() {
		// Nothing to write anywhere; only the collective's closing
		// synchronization remains.
		sw := ctx.span(trace.PhaseSyncWait)
		comm.Barrier()
		sw.Stop()
		return nil
	}
	domains := newFileDomains(span, comm.Size())

	// Phase 1: send each domain owner my bytes in its domain.
	parts := route(req, domains)
	ex := ctx.span(trace.PhaseExchange)
	recv := comm.Alltoall(parts)
	ex.Stop()

	// Phase 2: merge my senders' views highest-rank-wins and write my domain.
	merged := mergeDomain(recv, views, domains.at(comm.Rank()), ctx.Client.KeepsWriters())
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

// aggregateSpan returns the first offset to the last end the canonical
// views cover: empty when they cover nothing.
func aggregateSpan(views []interval.List) interval.Extent {
	var span interval.Extent
	for _, v := range views {
		if len(v) > 0 {
			span = span.Union(v.Bounds())
		}
	}
	return span
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

// route prices the exchange: one Alltoall part per domain owner that a
// request's bytes fall in, its Size what the wire would carry — a header
// plus the bytes of each piece the domain boundaries cut the request into.
// Extents ascend in file order and so do domains, so the parts come out in
// ascending owner order, and each extent starts at its first owner and
// walks forward only while domains still intersect it — O(1 + owners
// touched) per extent. The walk runs twice, to count and then to price, so
// the parts are allocated once, at their number.
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
	nparts, last := 0, -1
	each(func(owner int, _ interval.Extent) {
		if owner != last {
			nparts, last = nparts+1, owner
		}
	})
	parts := make([]mpi.Part, 0, nparts)
	each(func(owner int, ov interval.Extent) {
		if n := len(parts); n == 0 || parts[n-1].Peer != owner {
			parts = append(parts, mpi.Part{Peer: owner})
		}
		parts[len(parts)-1].Size += pieceHeader + ov.Len
	})
	return parts
}

// mergeDomain is an owner's batch for its domain: the highest-rank-wins map
// of the views of the ranks that sent to it — recv, in ascending sender
// order, as Alltoall delivers it — clipped to the domain. A rank that sent
// nothing covers no byte of the domain, so the map there is the
// collective's. Each sender's row of the shared views is cut to the
// extents that reach into the domain — two binary searches, no copy — and
// each run of index.EachWinner is clipped to the domain, in file order,
// naming the sender whose data it is whenever writers is set: the file
// keeps who wrote each byte, and the aggregator writes on other ranks'
// behalf. Requests are canonical (fileview.Extents coalesces touching
// pieces), so each run clipped to the domain is exactly the one piece of
// the sender's it falls in: extent counts, and with them the per-extent
// charges and virtual times, are those of merging the pieces route prices.
func mergeDomain(recv []mpi.Part, views []interval.List, domain interval.Extent, writers bool) pfs.Batch {
	rows, n := make([]interval.List, len(recv)), 0
	for k, pt := range recv {
		v := views[pt.Peer]
		lo := sort.Search(len(v), func(i int) bool { return v[i].End() > domain.Off })
		hi := lo + sort.Search(len(v)-lo, func(i int) bool { return v[lo+i].Off >= domain.End() })
		rows[k], n = v[lo:hi], n+hi-lo
	}
	var merged pfs.Batch
	merged.Ext = make(interval.List, 0, n) // a hint: exact when no higher rank splits or hides an extent
	if writers {
		merged.Writers = make([]int, 0, n)
	}
	index.EachWinner(rows, func(run interval.Extent, k int) {
		if run = run.Intersect(domain); !run.Empty() {
			merged.Ext = append(merged.Ext, run)
			if writers {
				merged.Writers = append(merged.Writers, recv[k].Peer)
			}
		}
	})
	return merged
}

var _ Strategy = TwoPhase{}
