// Package obs is the structured observability layer of the simulator: a
// deterministic event tracer plus a metrics registry, spanning every layer
// of the stack (scheduler parks, MPI collectives, lock grants, PFS server
// bookings, WAL activity, fault instants). Every event is an instant or one
// span [T, T+Dur), stamped at its start.
//
// Determinism contract: every event is keyed purely by
// (virtual time, actor id, per-actor sequence number). Events are appended
// to per-actor streams, each only by the actor it belongs to, and the
// engine runs one actor at a time in (virtual time, actor id) order, so the
// merged stream is byte-identical across worker counts.
//
// Memory: NewRecorder's limit selects unbounded capture (0), a per-actor
// ring buffer keeping the newest events (limit > 0, for P=16384 runs), or
// metrics-only mode retaining no events at all (limit < 0).
package obs

import (
	"math"
	"math/bits"
	"sort"

	"atomio/internal/sim"
)

// Layer names, one per instrumented subsystem.
const (
	LayerSched = "sched" // coordinator parks
	LayerMPI   = "mpi"   // message passing
	LayerLock  = "lock"  // byte-range lock service
	LayerPFS   = "pfs"   // I/O servers and WAL
	LayerFault = "fault" // injected failure instants
	LayerPhase = "phase" // trace.Span phase spans
)

// Event kinds, grouped by layer.
const (
	KindPark = "park" // sched: one sleep on a peer, from the park to the wake bound

	KindSend = "send" // mpi: bcast message handed to the network
	KindRecv = "recv" // mpi: bcast message delivered (timing applied)
	KindColl = "coll" // mpi: one rank's span through a barrier, allgather or alltoall

	KindLockGrant   = "grant"   // lock: request to granted return (Aux = ticket)
	KindLockRelease = "release" // lock: client gives the range back
	KindLockRevoke  = "revoke"  // lock: lease/timeout revocation fired

	KindServe      = "serve"  // pfs: one server piece, queue arrival to service end (Aux = service start)
	KindWALAppend  = "wal"    // pfs: intent-log append
	KindWALReplay  = "replay" // pfs: recovery replays an intent
	KindDrop       = "drop"   // fault: server crash window swallowed pieces
	KindCrash      = "crash"  // fault: writer crash truncated a write
	KindUnlockDrop = "udrop"  // fault: unlock message dropped
	KindUnlockDup  = "udup"   // fault: unlock message duplicated
	KindPhaseSpan  = "span"   // phase: one trace.Span (Tag = phase)
)

// TagAllgather is the collective tag of the view-exchange allgather — the
// O(P²)-message handshake opener the scaling analysis keys on. Collective
// tags are the mpi package's collective names; only this one is needed by
// name outside the trace itself.
const TagAllgather = "allgather"

// Event is one instant or span [T, T+Dur) of simulated activity. The
// identity triple (T, Actor, Seq) totally orders a trace; Seq is unique and
// dense per actor, while T may be locally non-monotonic (a span is appended
// when it closes, after the spans nested in it). Peer is -1 when the event
// has no partner actor; the remaining fields carry layer-specific payload
// and are zero when unused.
type Event struct {
	T     sim.VTime // virtual timestamp, ns
	Actor int       // emitting actor (rank)
	Seq   int64     // per-actor sequence number
	Layer string    // one of the Layer* constants
	Kind  string    // one of the Kind* constants
	Tag   string    // collective/phase label ("" for point-to-point)
	Peer  int       // partner actor, or -1
	Size  int64     // payload bytes (mpi, pfs)
	Off   int64     // byte offset (lock, pfs)
	Len   int64     // byte length (lock, pfs)
	Dur   sim.VTime // span duration, ns (0 for instants)
	Aux   int64     // layer extra: lock ticket, service start, collective instance
}

// stream is one actor's private event and metrics shard. Only the owning
// actor appends; no per-stream lock is needed because the engine runs one
// actor at a time, so every append happens on its one thread.
type stream struct {
	seq     int64
	events  []Event
	start   int   // ring read position once the buffer wrapped
	wrapped bool  // ring has overwritten at least one event
	dropped int64 // events overwritten (ring) or discarded (metrics-only)

	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
}

// Recorder captures events and metrics for one simulation run. All methods
// are nil-receiver safe no-ops so call sites stay branch-light; hot paths
// should still guard with a nil check to avoid building Event values that
// would be thrown away.
type Recorder struct {
	limit   int
	streams []stream
}

// NewRecorder returns a recorder for actors 0..actors-1. limit == 0
// captures every event; limit > 0 keeps only the newest limit events per
// actor (ring buffer); limit < 0 retains no events (metrics only).
func NewRecorder(actors, limit int) *Recorder {
	return &Recorder{limit: limit, streams: make([]stream, actors)}
}

// Actors returns the number of per-actor streams.
func (r *Recorder) Actors() int {
	if r == nil {
		return 0
	}
	return len(r.streams)
}

// Emit appends e to its actor's stream, assigning the per-actor sequence
// number. The caller supplies every field except Seq.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	s := &r.streams[e.Actor]
	e.Seq = s.seq
	s.seq++
	switch {
	case r.limit < 0:
		s.dropped++
	case r.limit == 0 || len(s.events) < r.limit:
		s.events = append(s.events, e)
	default:
		s.events[s.start] = e
		s.start++
		if s.start == r.limit {
			s.start = 0
		}
		s.wrapped = true
		s.dropped++
	}
}

// Count adds d to the named counter on actor's metrics shard.
func (r *Recorder) Count(actor int, name string, d int64) {
	if r == nil {
		return
	}
	s := &r.streams[actor]
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += d
}

// Counter reads one actor's counter (0 when absent or nil): the per-actor
// value the merged Metrics snapshot sums away.
func (r *Recorder) Counter(actor int, name string) int64 {
	if r == nil {
		return 0
	}
	return r.streams[actor].counters[name]
}

// MaxGauge raises the named gauge on actor's shard to v if v is larger.
func (r *Recorder) MaxGauge(actor int, name string, v int64) {
	if r == nil {
		return
	}
	s := &r.streams[actor]
	if s.gauges == nil {
		s.gauges = make(map[string]int64)
	}
	if v > s.gauges[name] {
		s.gauges[name] = v
	}
}

// Observe records v into the named histogram on actor's shard.
func (r *Recorder) Observe(actor int, name string, v int64) {
	if r == nil {
		return
	}
	s := &r.streams[actor]
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	h := s.hists[name]
	if h == nil {
		h = &Histogram{}
		s.hists[name] = h
	}
	h.Observe(v)
}

// Dropped reports how many events were discarded across all streams
// (ring-buffer overwrites plus metrics-only discards).
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.streams {
		n += r.streams[i].dropped
	}
	return n
}

// ordered returns one stream's retained events in sequence order (the ring
// is unrolled from its oldest retained event).
func (s *stream) ordered() []Event {
	if !s.wrapped {
		return s.events
	}
	out := make([]Event, 0, len(s.events))
	out = append(out, s.events[s.start:]...)
	out = append(out, s.events[:s.start]...)
	return out
}

// Events merges every stream into the trace's total order: ascending
// (T, Actor, Seq). The result is freshly allocated.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var total int
	for i := range r.streams {
		total += len(r.streams[i].events)
	}
	out := make([]Event, 0, total)
	for i := range r.streams {
		out = append(out, r.streams[i].ordered()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		return a.Seq < b.Seq
	})
	return out
}

// Metrics is a merged snapshot of every per-actor shard: counters sum,
// gauges take the maximum, histograms add bucket-wise.
type Metrics struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Hists    map[string]*Histogram `json:"hists,omitempty"`
}

// Metrics merges the per-actor shards into one snapshot. Merge order does
// not matter (sum/max/bucket-add are commutative), but iteration is sorted
// anyway so the snapshot's construction is order-free by construction.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{}
	for i := range r.streams {
		s := &r.streams[i]
		for _, k := range sortedKeys(s.counters) {
			if m.Counters == nil {
				m.Counters = make(map[string]int64)
			}
			m.Counters[k] += s.counters[k]
		}
		for _, k := range sortedKeys(s.gauges) {
			if m.Gauges == nil {
				m.Gauges = make(map[string]int64)
			}
			if v := s.gauges[k]; v > m.Gauges[k] {
				m.Gauges[k] = v
			}
		}
		for _, k := range sortedHistKeys(s.hists) {
			if m.Hists == nil {
				m.Hists = make(map[string]*Histogram)
			}
			h := m.Hists[k]
			if h == nil {
				h = &Histogram{}
				m.Hists[k] = h
			}
			h.Merge(s.hists[k])
		}
	}
	return m
}

// Counter reads a merged counter from the snapshot (0 when absent or nil).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	return m.Counters[name]
}

// Gauge reads a merged gauge from the snapshot (0 when absent or nil).
func (m *Metrics) Gauge(name string) int64 {
	if m == nil {
		return 0
	}
	return m.Gauges[name]
}

// Quantile reads a quantile from the named histogram (0 when absent).
func (m *Metrics) Quantile(name string, q float64) int64 {
	if m == nil {
		return 0
	}
	return m.Hists[name].Quantile(q)
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]int64) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedHistKeys returns the histogram map's keys in ascending order.
func sortedHistKeys(m map[string]*Histogram) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Histogram is a fixed-bucket virtual-time histogram: bucket i counts the
// values whose bit length is i (so bucket 0 holds exactly the zeros and
// bucket i spans [2^(i-1), 2^i)). Power-of-two buckets make every quantile
// a pure function of the recorded values — no configuration to disagree on.
type Histogram struct {
	Count   int64     `json:"count"`
	Sum     int64     `json:"sum"`
	Buckets [64]int64 `json:"buckets"`
}

// Observe records one non-negative value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

// Merge adds other's buckets into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// (q in [0,1]): 0 for the zero bucket, else 2^i - 1. A nil or empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var cum int64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if h.Buckets[i] > 0 && float64(cum) >= target {
			if i == 0 {
				return 0
			}
			return int64(uint64(1)<<uint(i)) - 1
		}
	}
	return math.MaxInt64
}

// Metric names shared by the instrumented layers, the bench columns and
// the atomtrace reports.
const (
	MetricMsgs        = "mpi.msgs"        // counter: messages delivered
	MetricMsgBytes    = "mpi.bytes"       // counter: message payload bytes
	MetricMsgsPrefix  = "mpi.msgs."       // counter family: messages per collective
	MetricLockReqs    = "lock.requests"   // counter: lock acquisitions requested
	MetricLockRevokes = "lock.revokes"    // counter: lease/timeout revocations
	MetricLockWait    = "lock.wait"       // histogram: request→grant virtual ns
	MetricPFSReqs     = "pfs.requests"    // counter: server bookings
	MetricPFSService  = "pfs.service"     // histogram: per-booking service ns
	MetricQueueDepth  = "pfs.qdepth.max"  // gauge: deepest server queue seen
	MetricWALAppends  = "pfs.wal.appends" // counter: intent-log appends
	MetricWALReplays  = "pfs.wal.replays" // counter: recovery replays
	MetricParks       = "sched.parks"     // counter: coordinator parks
	MetricFaultPrefix = "fault."          // counter family: fault instants by kind
	MetricPhasePrefix = "phase."          // counter family: per-phase virtual ns
)
