package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"atomio/internal/sim"
)

func TestRecorderAssignsDenseSequences(t *testing.T) {
	r := NewRecorder(2, 0)
	for i := 0; i < 3; i++ {
		r.Emit(Event{T: sim.VTime(10 * i), Actor: 0, Layer: LayerMPI, Kind: KindSend, Peer: 1})
	}
	r.Emit(Event{T: 5, Actor: 1, Layer: LayerMPI, Kind: KindRecv, Peer: 0})
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	// Total order is (T, Actor, Seq): actor 1's T=5 event interleaves
	// between actor 0's T=0 and T=10 events.
	var got [][2]int64
	for _, e := range events {
		got = append(got, [2]int64{int64(e.Actor), e.Seq})
	}
	want := [][2]int64{{0, 0}, {1, 0}, {0, 1}, {0, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("(actor, seq) order = %v, want %v", got, want)
	}
}

func TestRecorderMetricsOnly(t *testing.T) {
	r := NewRecorder(2, -1)
	r.Emit(Event{T: 1, Actor: 0, Layer: LayerMPI, Kind: KindSend, Peer: 1})
	r.Count(0, MetricMsgs, 3)
	r.Count(1, MetricMsgs, 4)
	if got := r.Events(); len(got) != 0 {
		t.Errorf("metrics-only recorder retained %d events", len(got))
	}
	if got := r.Metrics().Counter(MetricMsgs); got != 7 {
		t.Errorf("counter sum = %d, want 7", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Actor: 0})
	r.Count(0, "x", 1)
	r.MaxGauge(0, "x", 1)
	r.Observe(0, "x", 1)
	if r.Events() != nil || r.Actors() != 0 || r.Metrics() != nil {
		t.Error("nil recorder must be a zero-valued no-op")
	}
	var m *Metrics
	if m.Counter("x") != 0 || m.Gauge("x") != 0 || m.Quantile("x", 0.5) != 0 {
		t.Error("nil metrics must read as zero")
	}
}

func TestMetricsMerge(t *testing.T) {
	r := NewRecorder(3, 0)
	r.Count(0, MetricLockReqs, 2)
	r.Count(2, MetricLockReqs, 5)
	r.MaxGauge(0, MetricQueueDepth, 3)
	r.MaxGauge(1, MetricQueueDepth, 9)
	r.MaxGauge(2, MetricQueueDepth, 4)
	r.Observe(0, MetricLockWait, 100)
	r.Observe(1, MetricLockWait, 1000)
	m := r.Metrics()
	if got := m.Counter(MetricLockReqs); got != 7 {
		t.Errorf("counters must sum: got %d, want 7", got)
	}
	if got := m.Gauge(MetricQueueDepth); got != 9 {
		t.Errorf("gauges must take the max: got %d, want 9", got)
	}
	if h := m.Hists[MetricLockWait]; h == nil || h.Count != 2 || h.Sum != 1100 {
		t.Errorf("histograms must merge bucket-wise: %+v", m.Hists[MetricLockWait])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	// Quantile reports the holding bucket's upper bound: p0 lands in the
	// zero bucket, p99 in 1000's bucket [512, 1024).
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(0.99); got != 1023 {
		t.Errorf("p99 = %d, want 1023", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3 (bucket [2,4))", got)
	}
	h.Observe(-5) // clamped to zero, not a panic
	if h.Buckets[0] != 2 {
		t.Errorf("negative observations must clamp to the zero bucket: %v", h.Buckets[0])
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	big := &Histogram{}
	big.Observe(math.MaxInt64)
	if got := big.Quantile(1); got != math.MaxInt64 {
		t.Errorf("top-bucket quantile = %d, want MaxInt64", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(2, 0)
	r.Emit(Event{T: 10, Actor: 0, Layer: LayerMPI, Kind: KindSend, Tag: TagAllgather, Peer: 1, Size: 64})
	r.Emit(Event{T: 20, Actor: 1, Layer: LayerMPI, Kind: KindRecv, Tag: TagAllgather, Peer: 0, Size: 64, Dur: 5})
	r.Emit(Event{T: 30, Actor: 0, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Off: 128, Len: 256, Aux: 7})
	r.Count(0, MetricMsgs, 2)
	r.MaxGauge(1, MetricQueueDepth, 3)
	r.Observe(0, MetricLockWait, 400)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != 2 {
		t.Errorf("header: procs %d, want 2", got.Procs)
	}
	if !reflect.DeepEqual(got.Events, r.Events()) {
		t.Errorf("events do not round-trip:\n in=%+v\nout=%+v", r.Events(), got.Events)
	}
	if !reflect.DeepEqual(got.Metrics, r.Metrics()) {
		t.Errorf("metrics do not round-trip:\n in=%+v\nout=%+v", r.Metrics(), got.Metrics)
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no header":    `{"t":1,"l":"mpi","k":"send"}` + "\n",
		"wrong schema": `{"schema":"other/v9"}` + "\n",
		"broken json":  `{"schema":"atomio.trace/v1"}` + "\n" + `{bad` + "\n",
		"unknown line": `{"schema":"atomio.trace/v1"}` + "\n" + `{"t":5}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestReadJSONLReadsADroppedCountHeader: a trace whose header carries the
// "dropped" count that recorders once wrote still reads, its events intact.
func TestReadJSONLReadsADroppedCountHeader(t *testing.T) {
	in := `{"schema":"atomio.trace/v1","procs":4,"dropped":15}` + "\n" +
		`{"t":7,"a":1,"s":3,"l":"mpi","k":"coll","tag":"barrier","dur":2}` + "\n"
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{T: 7, Actor: 1, Seq: 3, Layer: LayerMPI, Kind: KindColl, Tag: "barrier", Peer: -1, Dur: 2}}
	if got.Procs != 4 || !reflect.DeepEqual(got.Events, want) {
		t.Errorf("read procs %d, events %+v; want 4 and %+v", got.Procs, got.Events, want)
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	r := NewRecorder(2, 0)
	r.Emit(Event{T: 1000, Actor: 0, Layer: LayerMPI, Kind: KindSend, Tag: TagAllgather, Peer: 1, Size: 8})
	r.Emit(Event{T: 2000, Actor: 1, Layer: LayerLock, Kind: KindLockGrant, Peer: -1, Dur: 500})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome trace output is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.DisplayTimeUnit != "ns" {
		t.Fatalf("unexpected document: %+v", doc)
	}
	send, grant := doc.TraceEvents[0], doc.TraceEvents[1]
	if send.Name != "mpi.send:allgather" || send.Ph != "i" || send.TS != 1.0 || send.TID != 0 {
		t.Errorf("instant event malformed: %+v", send)
	}
	if grant.Name != "lock.grant" || grant.Ph != "X" || grant.Dur != 0.5 || grant.TID != 1 {
		t.Errorf("span event malformed: %+v", grant)
	}
}

// fakeCoord counts protocol calls so the tracer's pass-through is checkable.
// Its Park runs onPark in place of the peers an engine runs while the actor
// sleeps.
type fakeCoord struct {
	actors                      int
	awaits, parks, wakes, dones int
	onPark                      func()
}

func (f *fakeCoord) Await(id int, at sim.VTime) { f.awaits++ }
func (f *fakeCoord) Wake(id int, at sim.VTime)  { f.wakes++ }
func (f *fakeCoord) Done(id int)                { f.dones++ }
func (f *fakeCoord) Actors() int                { return f.actors }

func (f *fakeCoord) Park(id int) {
	f.parks++
	if f.onPark != nil {
		f.onPark()
	}
}

func TestCoordTracer(t *testing.T) {
	if c := (&fakeCoord{actors: 2}); Trace(c, nil) != sim.Coord(c) {
		t.Error("nil recorder must return the coordinator unwrapped")
	}
	inner := &fakeCoord{actors: 2}
	rec := NewRecorder(2, 0)
	c := Trace(inner, rec)
	tracer, ok := c.(*CoordTracer)
	if !ok || tracer.Unwrap() != sim.Coord(inner) {
		t.Fatalf("Trace returned %T; want a CoordTracer wrapping inner", c)
	}
	// The protocol order every call site follows: announce time, Park,
	// and a peer Wakes the sleeper, raising its clock to the wake bound.
	inner.onPark = func() { c.Wake(0, 250) }
	c.Await(0, 100)
	c.Park(0)
	c.Done(0)
	if inner.awaits != 1 || inner.wakes != 1 || inner.parks != 1 || inner.dones != 1 {
		t.Errorf("calls not passed through: %+v", inner)
	}
	// One park span, from the announced time to the wake bound.
	want := []Event{{T: 100, Actor: 0, Layer: LayerSched, Kind: KindPark, Peer: -1, Dur: 150}}
	if got := rec.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events = %+v, want %+v", got, want)
	}
	if got := rec.Metrics().Counter(MetricParks); got != 1 {
		t.Errorf("park counter = %d, want 1", got)
	}
}
