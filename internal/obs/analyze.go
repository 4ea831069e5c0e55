package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// This file is the analysis half of the package: pure functions over a
// decoded event stream, shared by cmd/atomtrace and the tests. Everything
// here iterates in sorted order so reports are byte-stable.

// LayerStat aggregates one (layer, kind, tag) bucket of a trace.
type LayerStat struct {
	Layer string
	Kind  string
	Tag   string
	Count int64
	Dur   sim.VTime // summed span durations
	Bytes int64     // summed Size payloads
}

// Attribution buckets a trace by (layer, kind, tag), sorted by descending
// summed duration, then count, then name — the "where does time go" table.
func Attribution(events []Event) []LayerStat {
	byKey := make(map[string]*LayerStat)
	for _, e := range events {
		key := e.Layer + "\x00" + e.Kind + "\x00" + e.Tag
		s := byKey[key]
		if s == nil {
			s = &LayerStat{Layer: e.Layer, Kind: e.Kind, Tag: e.Tag}
			byKey[key] = s
		}
		s.Count++
		s.Dur += e.Dur
		s.Bytes += e.Size
	}
	out := make([]LayerStat, 0, len(byKey))
	for _, k := range sortedStatKeys(byKey) {
		out = append(out, *byKey[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return statName(out[i]) < statName(out[j])
	})
	return out
}

// sortedStatKeys returns the bucket keys in ascending order.
func sortedStatKeys(m map[string]*LayerStat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// statName renders one bucket's display name: layer.kind[:tag].
func statName(s LayerStat) string {
	name := s.Layer + "." + s.Kind
	if s.Tag != "" {
		name += ":" + s.Tag
	}
	return name
}

// PhaseTotals sums phase-span durations per (actor-agnostic) phase name.
func PhaseTotals(events []Event) map[string]sim.VTime {
	out := make(map[string]sim.VTime)
	for _, e := range events {
		if e.Layer == LayerPhase && e.Kind == KindPhaseSpan {
			out[e.Tag] += e.Dur
		}
	}
	return out
}

// graph is a trace's event-dependency graph. Every event but a sched.park
// is a node — a park is the wait inside the grant, collective or receive
// that depends on its waker — and a node has at most two predecessors:
//   - prev, its actor's previous node in program (sequence) order;
//   - cross, the event on another actor it waited on: a bcast recv's send
//     (FIFO per sender and receiver), a collective span's latest-entering
//     rank in the same call when that entry is later than its own, or a
//     grant's release — of the releases overlapping its byte range that
//     finished by the grant's end, the one that finished last (the lock
//     table's own rule, interval.MaxMap), when it is another actor's.
//
// A program-order predecessor need not start earlier: a span is appended
// when it closes, after the spans nested in it (a phase span after its
// events), so per-actor T is non-monotonic and only Seq orders an actor.
type graph struct {
	prev, cross []int // -1 when absent
	examined    int   // releases the grant lookups read
}

// newGraph builds the graph of events in O(n log n).
func newGraph(events []Event) *graph {
	g := &graph{prev: make([]int, len(events)), cross: make([]int, len(events))}
	var nodes, releases, grants []int
	pending := make(map[[2]int][]int) // bcast sends not yet received, per (sender, receiver)
	lastEntry := make(map[int64]int)  // per collective call: the latest-entering rank's mpi.coll
	for i, e := range events {
		g.prev[i], g.cross[i] = -1, -1
		if e.Layer != LayerSched {
			nodes = append(nodes, i)
		}
		switch {
		case e.Layer == LayerMPI && e.Kind == KindSend:
			key := [2]int{e.Actor, e.Peer}
			pending[key] = append(pending[key], i)
		case e.Layer == LayerMPI && e.Kind == KindRecv:
			key := [2]int{e.Peer, e.Actor}
			if q := pending[key]; len(q) > 0 {
				g.cross[i] = q[0]
				pending[key] = q[1:]
			}
		case e.Layer == LayerMPI && e.Kind == KindColl:
			if last, ok := lastEntry[e.Aux]; !ok || e.T > events[last].T {
				lastEntry[e.Aux] = i
			}
		case e.Layer == LayerLock && e.Kind == KindLockRelease:
			releases = append(releases, i)
		case e.Layer == LayerLock && e.Kind == KindLockGrant:
			grants = append(grants, i)
		}
	}
	slices.SortFunc(nodes, func(a, b int) int {
		return cmp.Or(cmp.Compare(events[a].Actor, events[b].Actor), cmp.Compare(events[a].Seq, events[b].Seq))
	})
	for k := 1; k < len(nodes); k++ {
		if events[nodes[k]].Actor == events[nodes[k-1]].Actor {
			g.prev[nodes[k]] = nodes[k-1]
		}
	}
	for i, e := range events {
		if e.Layer == LayerMPI && e.Kind == KindColl {
			if last := lastEntry[e.Aux]; events[last].T > e.T {
				g.cross[i] = last
			}
		}
	}
	// Sweep the grants in order of their end, recording each release that
	// finished by then under its byte range as its rank in finish order
	// (plus one: zero is no release).
	byFinish := func(a, b int) int { return cmp.Compare(finish(events[a]), finish(events[b])) }
	slices.SortStableFunc(releases, byFinish)
	slices.SortStableFunc(grants, byFinish)
	var finished interval.MaxMap[int]
	next := 0
	for _, i := range grants {
		for ; next < len(releases) && finish(events[releases[next]]) <= finish(events[i]); next++ {
			r := events[releases[next]]
			finished.Record(interval.Extent{Off: r.Off, Len: r.Len}, next+1)
		}
		e := events[i]
		k, read := finished.Max(interval.Extent{Off: e.Off, Len: e.Len})
		g.examined += read
		if k > 0 && events[releases[k-1]].Actor != e.Actor {
			g.cross[i] = releases[k-1]
		}
	}
	return g
}

// CriticalPath walks the event-dependency graph (see graph) backwards from
// the latest-finishing event and returns the longest blocking chain,
// earliest event first. At every step the predecessor with the latest
// finish time wins — the chain an actor was actually waiting on — except
// that a rank that entered a collective before its last peer waited on
// that peer, whatever it did meanwhile.
func CriticalPath(events []Event) []Event {
	g := newGraph(events)
	// Start from the latest-finishing node. On a tie a span beats an
	// instant (replayed logs are stamped at the makespan, after the run),
	// then the last in total order wins.
	start := -1
	for i, e := range events {
		if e.Layer == LayerSched {
			continue
		}
		if start < 0 || finish(e) > finish(events[start]) ||
			finish(e) == finish(events[start]) && (e.Dur > 0 || events[start].Dur == 0) {
			start = i
		}
	}
	var path []Event
	seen := make([]bool, len(events)) // hostile traces may hold cycles
	for at := start; at >= 0 && !seen[at]; {
		seen[at] = true
		path = append(path, events[at])
		next := g.prev[at]
		if ce := g.cross[at]; ce >= 0 {
			if next < 0 || finish(events[ce]) > finish(events[next]) || events[at].Kind == KindColl {
				next = ce
			}
		}
		at = next
	}
	slices.Reverse(path)
	return path
}

// finish is an event's completion instant.
func finish(e Event) sim.VTime { return e.T + e.Dur }

// PathSummary buckets a critical path by (layer, kind, tag) — the "what
// is the bottleneck made of" view. Each event is charged the part of its
// span that no earlier event on the path covers: a grant none of the
// release's chain it waited out, a phase span only the time between the
// events nested in it. Path time is charged once, so the durations sum to
// the union of the path's spans.
func PathSummary(path []Event) []LayerStat {
	charged := slices.Clone(path)
	var covered interval.List
	for i, e := range path {
		own := interval.List{{Off: int64(e.T), Len: int64(e.Dur)}}
		charged[i].Dur = sim.VTime(own.Subtract(covered).TotalLen())
		covered = covered.Union(own)
	}
	return Attribution(charged)
}

// ScalingPoint is one trace's contribution to a message-scaling fit.
type ScalingPoint struct {
	Procs int
	Msgs  int64
}

// FitExponent least-squares fits log(msgs) = a + b·log(procs) and returns
// the exponent b — ~2 for the ring allgather's P² message growth. Points
// with zero messages or procs < 2 are skipped; fewer than two usable
// points report 0.
func FitExponent(points []ScalingPoint) float64 {
	var xs, ys []float64
	for _, p := range points {
		if p.Procs < 2 || p.Msgs <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(p.Procs)))
		ys = append(ys, math.Log(float64(p.Msgs)))
	}
	if len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// Report renders the standard atomtrace attribution report for one trace.
func Report(t *TraceData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d procs, %d events", t.Procs, len(t.Events))
	if t.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped)", t.Dropped)
	}
	b.WriteString("\n\nattribution (by summed virtual duration):\n")
	fmt.Fprintf(&b, "  %-28s %10s %14s %12s\n", "event", "count", "dur(ns)", "bytes")
	for _, s := range Attribution(t.Events) {
		fmt.Fprintf(&b, "  %-28s %10d %14d %12d\n", statName(s), s.Count, int64(s.Dur), s.Bytes)
	}
	phases := PhaseTotals(t.Events)
	if len(phases) > 0 {
		b.WriteString("\nphase totals (summed across ranks):\n")
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-12s %14d ns\n", name, int64(phases[name]))
		}
	}
	if path := CriticalPath(t.Events); len(path) > 0 {
		fmt.Fprintf(&b, "\ncritical path: %d events spanning %d ns\n", len(path), int64(finish(path[len(path)-1])-path[0].T))
		for _, s := range PathSummary(path) {
			fmt.Fprintf(&b, "  %-28s %10d %14d\n", statName(s), s.Count, int64(s.Dur))
		}
	}
	if t.Metrics != nil {
		b.WriteString("\nmetrics:\n")
		for _, k := range sortedKeys(t.Metrics.Counters) {
			fmt.Fprintf(&b, "  %-24s %12d\n", k, t.Metrics.Counters[k])
		}
		for _, k := range sortedKeys(t.Metrics.Gauges) {
			fmt.Fprintf(&b, "  %-24s %12d (max)\n", k, t.Metrics.Gauges[k])
		}
		for _, k := range sortedHistKeys(t.Metrics.Hists) {
			h := t.Metrics.Hists[k]
			fmt.Fprintf(&b, "  %-24s n=%d p50=%dns p99=%dns\n", k, h.Count, h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	return b.String()
}
