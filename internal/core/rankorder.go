package core

import (
	"atomio/internal/interval"
	"atomio/internal/interval/index"
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
	ctx.Client.WriteV(clipSegments(buf, req, keep))
	// Flush so the collective completes with data visible to all; no
	// barrier is needed because no two ranks touch the same byte.
	ctx.Client.Sync()
	ctx.Client.Invalidate()
	xfer.Stop()
	return nil
}

var _ Strategy = RankOrder{}
