package core

import (
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
	"atomio/internal/trace"
)

// RankOrder is the process-rank ordering strategy of §3.3.2: after the view
// exchange, every rank clips from its own view the bytes any higher rank
// will write. The clipped views are pairwise disjoint, so all ranks write
// concurrently with no locks and no phases, and the total I/O volume
// shrinks by the surrendered overlap bytes. This is the strategy that wins
// almost everywhere in Figure 8.
type RankOrder struct{}

// Name implements Strategy.
func (RankOrder) Name() string { return "ordering" }

// WriteAll implements Strategy.
func (RankOrder) WriteAll(ctx *Context, buf []byte, req interval.List) error {
	hs := ctx.span(trace.PhaseHandshake)
	defer hs.Stop()
	views := ExchangeViews(ctx.Comm, req)
	// One sweep clips every rank's view; each rank reads its own row.
	clips := shared(ctx.Comm, func() []interval.List { return index.ClipAll(views) })
	keep := clips[ctx.Comm.Rank()]
	hs.Stop()
	xfer := ctx.span(trace.PhaseTransfer)
	ctx.Client.Write(clipped(buf, req, keep))
	// Flush so the collective completes with data visible to all; no
	// barrier is needed because no two ranks touch the same byte.
	ctx.Client.Sync()
	ctx.Client.Invalidate()
	xfer.Stop()
	return nil
}

// clipped is the batch that writes keep, the rank's clipped view, with the
// bytes req streams into it — the "re-calculation of each process's file
// view" step of §3.3.2. A clipped view is cut from its canonical request,
// so each kept extent lies inside one request extent and takes buf's bytes
// at its offset's place in req: the lengths of the request extents before
// it, plus its distance into its own. The list is keep itself, lent.
func clipped(buf []byte, req, keep interval.List) pfs.Batch {
	if buf == nil {
		return pfs.Batch{Ext: keep}
	}
	data := make([][]byte, len(keep))
	j, at := 0, int64(0) // req[j] holds the kept extent; at is its buffer offset
	for i, x := range keep {
		for req[j].End() <= x.Off {
			at += req[j].Len
			j++
		}
		from := at + x.Off - req[j].Off
		data[i] = buf[from : from+x.Len]
	}
	return pfs.Batch{Ext: keep, Data: data}
}

var _ Strategy = RankOrder{}
