package core

import (
	"math"
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

	// Phase 2: merge my senders' views highest-rank-wins and write my
	// domain. The owner may die between the exchange and its domain write —
	// the partial two-phase commit: the runs from the crash point on are
	// never issued and become damage, and the collective still completes
	// (barrier below) so the surviving ranks return.
	k, _ := ctx.crashPoint(math.MaxInt) // counted in the merge's runs
	written, damage := mergeDomain(recv, views, domains.at(comm.Rank()), ctx.Client.KeepsWriters(), k)
	xfer := ctx.span(trace.PhaseTransfer)
	ctx.Client.Write(written)
	ctx.Client.Damage(damage)
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

// domainCursor walks ascending offsets of the span through the domains, as
// pfs's serverWalk walks stripes: the owner only moves forward, to the next
// domain by a step and past others by division (fileDomains.owner).
type domainCursor struct {
	d     fileDomains
	owner int   // the domain the cursor is in, −1 before the first
	end   int64 // that domain's end
}

// piece returns the owner of off, at or after the last offset asked, and
// how many bytes of [off, end) its domain holds.
func (c *domainCursor) piece(off, end int64) (owner int, take int64) {
	if off >= c.end {
		if off < c.end+c.d.chunk { // the next domain
			c.owner++
		} else {
			c.owner = c.d.owner(off)
		}
		c.end = c.d.at(c.owner).End()
	}
	return c.owner, min(end, c.end) - off
}

// pieceHeader is the size of a routed piece's (offset, length) header on the
// wire the exchange is timed as.
const pieceHeader = 16

// route prices the exchange: one Alltoall part per domain owner that a
// request's bytes fall in, its Size what the wire would carry — a header
// plus the bytes of each piece the domain boundaries cut the request into.
// Extents ascend in file order and so do domains, so one domain cursor
// walks the request, a piece at a time, and the parts come out in
// ascending owner order. The walk runs twice, to count and then to price,
// so the parts are allocated once, at their number.
func route(req interval.List, domains fileDomains) []mpi.Part {
	start := domainCursor{d: domains, owner: -1, end: domains.span.Off}
	nparts, last, c := 0, -1, start
	for _, e := range req {
		for off := e.Off; off < e.End(); {
			owner, take := c.piece(off, e.End())
			if owner != last {
				nparts, last = nparts+1, owner
			}
			off += take
		}
	}
	parts := make([]mpi.Part, 0, nparts)
	c = start
	for _, e := range req {
		for off := e.Off; off < e.End(); {
			owner, take := c.piece(off, e.End())
			if n := len(parts); n == 0 || parts[n-1].Peer != owner {
				parts = append(parts, mpi.Part{Peer: owner})
			}
			parts[len(parts)-1].Size += pieceHeader + take
			off += take
		}
	}
	return parts
}

// mergeDomain is an owner's batch for its domain, and the damage a crash
// at run crash (math.MaxInt: none) leaves: the highest-rank-wins map of the
// views of the ranks that sent to it — recv, in ascending sender order, as
// Alltoall delivers it — clipped to the domain. A rank that sent nothing
// covers no byte of the domain, so the map there is the collective's. Each
// sender's row of the shared views is cut to the extents that reach into
// the domain — two binary searches, no copy — and each run of
// index.EachWinner is clipped to the domain, in file order. Requests are
// canonical (fileview.Extents coalesces touching pieces), so each run is
// the one piece of the sender's it falls in. The runs before the crash run
// are written: one extent per run naming the sender whose data it is when
// writers is set — the file keeps who wrote each byte, and the aggregator
// writes on other ranks' behalf — and otherwise coalesced where they touch,
// so that a write-behind flush sends the canonical batch as it stands. The
// rest, coalesced, is the damage, held after the batch in one array. A
// write-behind flush books the coalesced runs either way, so virtual times
// are those of merging the pieces route prices; a file system that writes
// through is sent the coalesced runs.
func mergeDomain(recv []mpi.Part, views []interval.List, domain interval.Extent, writers bool, crash int) (pfs.Batch, interval.List) {
	rows, n := make([]interval.List, len(recv)), 0
	for k, pt := range recv {
		v := views[pt.Peer]
		lo := sort.Search(len(v), func(i int) bool { return v[i].End() > domain.Off })
		hi := lo + sort.Search(len(v)-lo, func(i int) bool { return v[lo+i].Off >= domain.End() })
		rows[k], n = v[lo:hi], n+hi-lo
	}
	// The runs written, then the runs damaged. n hints at the runs: exact
	// when no higher rank splits or hides an extent.
	var merged pfs.Batch
	if writers {
		merged.Ext, merged.Writers = make(interval.List, 0, n), make([]int, 0, n)
	}
	cut, runs := -1, 0 // cut: merged.Ext's length at the crash run
	index.EachWinner(rows, func(run interval.Extent, k int) {
		if run = run.Intersect(domain); run.Empty() {
			return
		}
		if runs == crash {
			cut = len(merged.Ext)
		}
		runs++
		last := len(merged.Ext) - 1
		switch {
		case writers && cut < 0:
			merged.Ext = append(merged.Ext, run)
			merged.Writers = append(merged.Writers, recv[k].Peer)
		case last >= max(cut, 0) && merged.Ext[last].End() == run.Off: // touches its side's last extent
			merged.Ext[last].Len += run.Len
		default:
			// Each coalesced extent but the first damaged one starts at its
			// own extent of the rows, so n+1 bound them: a second gets room
			// for all.
			if last == 0 && cap(merged.Ext) == 1 {
				merged.Ext = append(make(interval.List, 0, n+1), merged.Ext[0])
			}
			merged.Ext = append(merged.Ext, run)
		}
	})
	if cut < 0 {
		cut = len(merged.Ext)
	}
	return pfs.Batch{Ext: merged.Ext[:cut:cut], Writers: merged.Writers}, merged.Ext[cut:]
}

var _ Strategy = TwoPhase{}
