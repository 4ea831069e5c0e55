package runner

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// runSmall executes a small real grid once per test binary.
func runSmall(t *testing.T) []CellResult {
	t.Helper()
	return Run(smallGrid().Cells(), Options{Workers: 4})
}

func TestRecordsCarryMetrics(t *testing.T) {
	recs := Records(runSmall(t))
	for _, r := range recs {
		if r.Error != "" {
			t.Fatalf("cell %s failed: %s", r.ID, r.Error)
		}
		if r.BandwidthMBs <= 0 || r.MakespanNS <= 0 || r.WrittenBytes <= 0 {
			t.Errorf("cell %s has empty metrics: %+v", r.ID, r)
		}
		if r.ArrayBytes != int64(r.M)*int64(r.N) {
			t.Errorf("cell %s array bytes %d != %d*%d", r.ID, r.ArrayBytes, r.M, r.N)
		}
		if r.Pattern != "column-wise" {
			t.Errorf("cell %s pattern %q", r.ID, r.Pattern)
		}
		if r.Engine != "eventloop" {
			t.Errorf("cell %s engine %q, want the eventloop default", r.ID, r.Engine)
		}
	}
}

// normalize clears the one field that legitimately differs between runs and
// is irrelevant to round-trip fidelity checks against a rewrite.
func normalize(recs []Record) []Record {
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

func TestJSONRoundTrip(t *testing.T) {
	recs := Records(runSmall(t))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Schema) {
		t.Errorf("JSON output missing schema tag %q", Schema)
	}
	back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(recs), normalize(back)) {
		t.Errorf("JSON round trip mismatch:\n in=%+v\nout=%+v", recs, back)
	}
	if _, err := ReadJSON(strings.NewReader(`{"schema":"other/v9","records":[]}`)); err == nil {
		t.Error("ReadJSON: want schema mismatch error")
	}
	if _, err := ReadJSON(strings.NewReader(buf.String() + "}")); err == nil {
		t.Error("ReadJSON: want an error for data after the document")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	results := runSmall(t)
	// Include a failed cell so the error column round-trips too.
	bad := results[0]
	bad.Cell.ID = "bad"
	bad.Result = nil
	bad.Err = errFake("it broke, badly")
	results = append(results, bad)

	recs := Records(results)
	// A non-default engine name must survive the packed format too.
	recs[0].Engine = "goroutine"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(recs), normalize(back)) {
		t.Errorf("CSV round trip mismatch:\n in=%+v\nout=%+v", recs, back)
	}
	if back[len(back)-1].Error != "it broke, badly" {
		t.Errorf("error column lost: %+v", back[len(back)-1])
	}

	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("ReadCSV(empty): want error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("ReadCSV(bad header): want error")
	}
}

// TestMetricsColumnsRoundTrip runs a traced grid (metrics-only, no event
// retention) and checks the observability columns — messages,
// max_queue_depth and the lock-wait quantiles — are populated from the
// metrics registry and survive both emit formats exactly.
func TestMetricsColumnsRoundTrip(t *testing.T) {
	g := smallGrid()
	g.Base.TraceEvents = true
	g.Base.EventLimit = -1
	results := Run(g.Cells(), Options{Workers: 4})
	recs := Records(results)

	var sawMessages, sawDepth, sawLockWait bool
	for _, r := range recs {
		if r.Error != "" {
			t.Fatalf("cell %s failed: %s", r.ID, r.Error)
		}
		if r.Messages > 0 {
			sawMessages = true
		}
		if r.MaxQueueDepth > 0 {
			sawDepth = true
		}
		if r.Strategy == "locking" && r.LockWaitP99NS > 0 {
			sawLockWait = true
		}
		if r.LockWaitP50NS > r.LockWaitP99NS {
			t.Errorf("cell %s: p50 %d > p99 %d", r.ID, r.LockWaitP50NS, r.LockWaitP99NS)
		}
	}
	if !sawMessages || !sawDepth || !sawLockWait {
		t.Fatalf("metrics columns never populated: messages=%v depth=%v lockwait=%v",
			sawMessages, sawDepth, sawLockWait)
	}

	var jsonBuf, csvBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, recs); err != nil {
		t.Fatal(err)
	}
	jsonBack, err := ReadJSON(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, jsonBack) {
		t.Error("metrics columns lost in JSON round trip")
	}
	if err := WriteCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	csvBack, err := ReadCSV(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, csvBack) {
		t.Error("metrics columns lost in CSV round trip")
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }
