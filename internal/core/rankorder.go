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
func (RankOrder) WriteAll(ctx *Context, req interval.List) error {
	hs := ctx.span(trace.PhaseHandshake)
	defer hs.Stop()
	// One sweep clips every rank's view; each rank reads its own row.
	_, clips := ExchangeViews(ctx.Comm, req, index.ClipAll)
	hs.Stop()
	xfer := ctx.span(trace.PhaseTransfer)
	// The clipped view — the "re-calculation of each process's file view"
	// step of §3.3.2 — is written as it is, lent.
	ctx.Client.Write(pfs.Batch{Ext: clips[ctx.Comm.Rank()]})
	// Flush so the collective completes with data visible to all; no
	// barrier is needed because no two ranks touch the same byte.
	ctx.Client.Sync()
	xfer.Stop()
	return nil
}

var _ Strategy = RankOrder{}
