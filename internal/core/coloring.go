package core

import (
	"atomio/internal/interval"
	"atomio/internal/pfs"
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
func (s Coloring) WriteAll(ctx *Context, req interval.List) error {
	// Handshake: exchange views, build W, color. W and the coloring are
	// the same on every rank, so the exchange derives them once.
	hs := ctx.span(trace.PhaseHandshake)
	defer hs.Stop()
	var col coloring
	if s.UseSpans {
		_, col = ExchangeSpans(ctx.Comm, req, func(spans []interval.Extent) coloring {
			return colorOf(BuildOverlapMatrixFromSpans(spans))
		})
	} else {
		_, col = ExchangeViews(ctx.Comm, req, func(views []interval.List) coloring {
			return colorOf(BuildOverlapMatrix(views))
		})
	}
	myColor, numColors := col.colors[ctx.Comm.Rank()], col.numColors
	hs.Stop()

	// One I/O phase per color, barrier-separated.
	for step := 0; step < numColors; step++ {
		if step == myColor {
			xfer := ctx.span(trace.PhaseTransfer)
			ctx.Client.Write(pfs.Batch{Ext: req})
			// Flush write-behind data so the write is visible before
			// the next phase starts (the per-write file sync of §3).
			ctx.Client.Sync()
			xfer.Stop()
		}
		sw := ctx.span(trace.PhaseSyncWait)
		ctx.Comm.Barrier()
		sw.Stop()
	}
	// No rank reads, so §3's cache invalidation before reading the
	// overlapped regions has nothing to drop.
	return nil
}

// coloring is W's greedy coloring: each rank's color, and how many there are.
type coloring struct {
	colors    []int
	numColors int
}

func colorOf(w OverlapMatrix) coloring {
	colors, numColors := GreedyColor(w)
	return coloring{colors, numColors}
}

var _ Strategy = Coloring{}
