// Package core implements the paper's contribution: the three strategies
// that make concurrent overlapping MPI-IO writes obey MPI atomicity
// semantics.
//
//   - Locking — wrap each process's whole (possibly non-contiguous) request
//     in one exclusive byte-range lock spanning first to last byte (§3.2,
//     the ROMIO approach).
//   - Coloring — exchange file views, build the P×P overlap matrix W,
//     greedily color the conflict graph (Figure 5), and write in one phase
//     per color with barriers in between (§3.3.1).
//   - RankOrder — exchange file views and let the highest overlapping rank
//     own every contested byte; lower ranks clip their views and all ranks
//     write concurrently with zero overlap (§3.3.2).
//
// Strategies operate on a Context assembled by package mpiio. All three are
// collective: every rank of the communicator must call WriteAll together.
package core

import (
	"fmt"

	"atomio/internal/fileview"
	"atomio/internal/interval"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/trace"
)

// Context carries the per-rank machinery a strategy needs.
type Context struct {
	// Comm is a library-private communicator (a Dup of the application's).
	Comm *mpi.Comm
	// Client is this rank's file-system client.
	Client *pfs.Client
	// LockMgr is the platform's lock manager; nil when the file system
	// has no byte-range locking (Cplant ENFS).
	LockMgr lock.Manager
	// Trace, when non-nil, receives per-phase virtual-time breakdowns
	// (handshake / lock wait / transfer / sync wait / exchange).
	Trace *trace.Recorder
	// Fault, when non-nil, is the failure-injection plan consulted for
	// writer crashes.
	Fault Faults
}

// span opens a trace span for this rank; no-op when tracing is off.
func (ctx *Context) span(p trace.Phase) *trace.Span {
	return trace.Start(ctx.Trace, ctx.Comm.Rank(), p, ctx.Comm.Clock())
}

// Faults is the slice of the failure-injection surface a strategy consults:
// whether this rank's writer dies mid-request, and after how many committed
// segments. Implemented by sim/fault.Injector; nil on healthy runs. A
// strategy that hits a crash must still complete its collective protocol
// (barriers, exchanges) so the surviving ranks do not hang — the crash
// surrenders data, not control flow — and must report the never-written
// extents through Client.Damage so recovery and the verifier see them.
type Faults interface {
	WriterCrash(rank int) (segments int, crashed bool)
}

// crashPoint consults the fault plan for this rank: it returns how many of
// n segments the writer commits before dying and whether it dies at all
// (k == n, false on healthy runs).
func (ctx *Context) crashPoint(n int) (int, bool) {
	if ctx.Fault == nil {
		return n, false
	}
	k, crashed := ctx.Fault.WriterCrash(ctx.Comm.Rank())
	if !crashed {
		return n, false
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k, true
}

// segExtents lists the file extents of materialized segments.
func segExtents(segs []pfs.Segment) interval.List {
	out := make(interval.List, 0, len(segs))
	for _, s := range segs {
		out = append(out, interval.Extent{Off: s.Off, Len: s.Len()})
	}
	return out.Normalize()
}

// Strategy is one atomicity implementation.
type Strategy interface {
	// Name returns the strategy's short name as used in the paper's plots.
	Name() string
	// WriteAll collectively writes buf according to the precomputed
	// request mapping (one entry per contiguous file segment, in logical
	// buffer order), guaranteeing MPI atomic semantics for the overlaps.
	// A nil buf is a timing-only request: the mapping alone says how many
	// bytes go where, and the strategy issues payload-less segments — legal
	// only on a file system that stores no data.
	WriteAll(ctx *Context, buf []byte, maps []fileview.Mapping) error
}

// segment is the piece of a request that lands at file offset off: the n
// bytes of buf starting at index at, or — for a timing-only request, whose
// buf is nil — a payload-less segment of the same length.
func segment(buf []byte, off, at, n int64) pfs.Segment {
	if buf == nil {
		return pfs.Segment{Off: off, N: n}
	}
	return pfs.Segment{Off: off, Data: buf[at : at+n]}
}

// Segments lists the pfs segments of a mapped request, one per mapping.
func Segments(buf []byte, maps []fileview.Mapping) []pfs.Segment {
	segs := make([]pfs.Segment, len(maps))
	for i, m := range maps {
		segs[i] = segment(buf, m.File.Off, m.Buf, m.File.Len)
	}
	return segs
}

// ExtentsOf lists the file extents of a mapped request in canonical order
// (fileview guarantees increasing, non-overlapping extents).
func ExtentsOf(maps []fileview.Mapping) interval.List {
	out := make(interval.List, len(maps))
	for i, m := range maps {
		out[i] = m.File
	}
	return out
}

// SpanOf returns the extent from the first to the last byte of a mapped
// request: ExtentsOf(maps).Span() without building the list.
func SpanOf(maps []fileview.Mapping) (span interval.Extent) {
	for _, m := range maps {
		span, _ = span.Union(m.File)
	}
	return span
}

// clipSegments restricts a mapped request to the bytes in keep, preserving
// buffer correspondence. It is the "re-calculation of each process's file
// view" step of the rank-ordering strategy (§3.3.2).
func clipSegments(buf []byte, maps []fileview.Mapping, keep interval.List) []pfs.Segment {
	keep = keep.Normalize()
	// A clipped view is cut from the mappings: one piece per kept extent.
	segs := make([]pfs.Segment, 0, len(keep))
	j := 0
	for _, m := range maps {
		for j < len(keep) && keep[j].End() <= m.File.Off {
			j++
		}
		for k := j; k < len(keep) && keep[k].Off < m.File.End(); k++ {
			ov := m.File.Intersect(keep[k])
			if ov.Empty() {
				continue
			}
			segs = append(segs, segment(buf, ov.Off, m.Buf+(ov.Off-m.File.Off), ov.Len))
		}
	}
	return segs
}

// ByName returns the strategy with the given name ("locking", "coloring",
// "ordering", or the §3.2 extension "listio").
func ByName(name string) (Strategy, error) {
	switch name {
	case "locking":
		return Locking{}, nil
	case "coloring":
		return Coloring{}, nil
	case "ordering":
		return RankOrder{}, nil
	case "listio":
		return ListIO{}, nil
	case "twophase":
		return TwoPhase{}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", name)
	}
}

// All returns the three strategies in the paper's presentation order.
func All() []Strategy {
	return []Strategy{Locking{}, Coloring{}, RankOrder{}}
}
