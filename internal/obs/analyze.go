package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"

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

// CriticalPath walks the event dependency DAG backwards from the latest-
// finishing event and returns the longest blocking chain, earliest event
// first. Edges considered: program order within an actor, message edges
// (each mpi.recv matched FIFO to its mpi.send by the (sender, receiver)
// pair), join edges (an mpi.coll depends on the same call's mpi.coll with
// the latest entry on another actor, when that entry is later than its
// own) and grant edges (each waited lock.grant matched to the latest
// earlier lock.release overlapping its byte range). At every step the
// predecessor with the latest finish time wins — the chain an actor was
// actually waiting on — except that a rank that entered a collective
// before its last peer waited on that peer, whatever it did meanwhile.
func CriticalPath(events []Event) []Event {
	if len(events) == 0 {
		return nil
	}
	// Per-actor program order: group by (actor, seq). The global order
	// sorts by (T, actor, seq) and wake bounds make T locally
	// non-monotonic, so re-sorting by seq is required, not a precaution.
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := events[order[a]], events[order[b]]
		if ea.Actor != eb.Actor {
			return ea.Actor < eb.Actor
		}
		return ea.Seq < eb.Seq
	})
	prevInActor := make([]int, len(events))
	for i := range prevInActor {
		prevInActor[i] = -1
	}
	for k := 1; k < len(order); k++ {
		if events[order[k]].Actor == events[order[k-1]].Actor {
			prevInActor[order[k]] = order[k-1]
		}
	}
	// FIFO message matching per (sender, receiver) pair.
	crossEdge := make([]int, len(events))
	pending := make(map[[2]int][]int)
	for i := range crossEdge {
		crossEdge[i] = -1
	}
	lastEntry := make(map[int64]int) // per collective call: the latest-entering rank's mpi.coll
	for i, e := range events {
		if e.Layer != LayerMPI {
			continue
		}
		switch e.Kind {
		case KindSend:
			key := [2]int{e.Actor, e.Peer}
			pending[key] = append(pending[key], i)
		case KindRecv:
			key := [2]int{e.Peer, e.Actor}
			if q := pending[key]; len(q) > 0 {
				crossEdge[i] = q[0]
				pending[key] = q[1:]
			}
		case KindColl:
			if last, ok := lastEntry[e.Aux]; !ok || e.T > events[last].T {
				lastEntry[e.Aux] = i
			}
		}
	}
	for i, e := range events {
		if e.Layer == LayerMPI && e.Kind == KindColl {
			if last := lastEntry[e.Aux]; events[last].T > e.T {
				crossEdge[i] = last
			}
		}
	}
	// Grant edges: a grant that waited (Dur > 0) depends on the latest
	// earlier release overlapping its range on another actor.
	var releases []int
	for i, e := range events {
		if e.Layer == LayerLock && e.Kind == KindLockRelease {
			releases = append(releases, i)
		}
	}
	for i, e := range events {
		if e.Layer != LayerLock || e.Kind != KindLockGrant || e.Dur <= 0 {
			continue
		}
		best := -1
		for _, ri := range releases {
			r := events[ri]
			if r.Actor == e.Actor || r.T > e.T {
				continue
			}
			if r.Off+r.Len <= e.Off || e.Off+e.Len <= r.Off {
				continue
			}
			if best < 0 || finish(events[ri]) > finish(events[best]) {
				best = ri
			}
		}
		crossEdge[i] = best
	}
	// Start from the latest finish (ties: last in total order) and walk
	// back along the latest-finishing predecessor.
	start := 0
	for i := range events {
		if finish(events[i]) >= finish(events[start]) {
			start = i
		}
	}
	var path []Event
	seen := make(map[int]bool)
	for at := start; at >= 0 && !seen[at]; {
		seen[at] = true
		path = append(path, events[at])
		next := prevInActor[at]
		if ce := crossEdge[at]; ce >= 0 {
			if next < 0 || finish(events[ce]) > finish(events[next]) || events[at].Kind == KindColl {
				next = ce
			}
		}
		at = next
	}
	// Reverse into chronological order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// finish is an event's completion instant.
func finish(e Event) sim.VTime { return e.T + e.Dur }

// PathSummary buckets a critical path by (layer, kind, tag) — the "what
// is the bottleneck made of" view.
func PathSummary(path []Event) []LayerStat { return Attribution(path) }

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
		makespan := finish(path[len(path)-1]) - path[0].T
		fmt.Fprintf(&b, "\ncritical path: %d events spanning %d ns\n", len(path), int64(makespan))
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
