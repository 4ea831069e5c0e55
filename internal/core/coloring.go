package core

import (
	"atomio/internal/interval"
	"atomio/internal/trace"
)

// Coloring is the graph-coloring process-handshaking strategy of §3.3.1:
// ranks exchange file views, build the overlap matrix W, color the
// conflict graph with the greedy algorithm of Figure 5, and perform the
// I/O in one phase per color. A barrier separates phases ("process
// synchronization between any two steps is necessary"), and each phase's
// writers flush before the barrier so the next phase sees their data.
type Coloring struct {
	// UseSpans builds W from bounding spans instead of exact extent
	// lists (ablation A5): a cheaper handshake that can only
	// over-approximate overlap.
	UseSpans bool
}

// Name implements Strategy.
func (s Coloring) Name() string {
	if s.UseSpans {
		return "coloring-spans"
	}
	return "coloring"
}

// WriteAll implements Strategy.
func (s Coloring) WriteAll(ctx *Context, buf []byte, req interval.List) error {
	// Handshake: exchange views, build W, color. W and the coloring are
	// the same on every rank, so they are computed once and shared.
	hs := ctx.span(trace.PhaseHandshake)
	defer hs.Stop()
	var build func() OverlapMatrix
	if s.UseSpans {
		spans := ExchangeSpans(ctx.Comm, req)
		build = func() OverlapMatrix { return BuildOverlapMatrixFromSpans(spans) }
	} else {
		views := ExchangeViews(ctx.Comm, req)
		build = func() OverlapMatrix { return BuildOverlapMatrix(views) }
	}
	type coloring struct {
		colors    []int
		numColors int
	}
	col := shared(ctx.Comm, func() coloring {
		colors, numColors := GreedyColor(build())
		return coloring{colors, numColors}
	})
	myColor, numColors := col.colors[ctx.Comm.Rank()], col.numColors
	hs.Stop()

	// One I/O phase per color, barrier-separated.
	for step := 0; step < numColors; step++ {
		if step == myColor {
			xfer := ctx.span(trace.PhaseTransfer)
			ctx.Client.WriteV(Segments(buf, req))
			// Flush write-behind data so the write is visible before
			// the next phase starts (the per-write file sync of §3).
			ctx.Client.Sync()
			xfer.Stop()
		}
		sw := ctx.span(trace.PhaseSyncWait)
		ctx.Comm.Barrier()
		sw.Stop()
	}
	// Reads after an overlapping write must not be served from a stale
	// cache (§3: "A cache invalidation shall also perform in each process
	// before reading from the overlapped regions").
	ctx.Client.Invalidate()
	return nil
}

var _ Strategy = Coloring{}
