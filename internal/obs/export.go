package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"atomio/internal/sim"
)

// SchemaJSONL names the JSONL trace schema: a header line, one event per
// line in (T, Actor, Seq) order, and a closing metrics line.
const SchemaJSONL = "atomio.trace/v1"

// jsonLine is the JSONL wire form — a tagged union covering the header
// (Schema set), events (Layer set) and the trailer (Metrics set). Field
// order and omitempty choices are part of the byte-identical contract.
type jsonLine struct {
	Schema string `json:"schema,omitempty"`
	Procs  int    `json:"procs,omitempty"`

	T     int64  `json:"t,omitempty"`
	Actor int    `json:"a,omitempty"`
	Seq   int64  `json:"s,omitempty"`
	Layer string `json:"l,omitempty"`
	Kind  string `json:"k,omitempty"`
	Tag   string `json:"tag,omitempty"`
	Peer  *int   `json:"peer,omitempty"`
	Size  int64  `json:"size,omitempty"`
	Off   int64  `json:"off,omitempty"`
	Len   int64  `json:"len,omitempty"`
	Dur   int64  `json:"dur,omitempty"`
	Aux   int64  `json:"aux,omitempty"`

	Metrics *Metrics `json:"metrics,omitempty"`
}

// WriteJSONL writes the recorder's merged trace as compact JSONL: a
// schema header, every event, then the merged metrics snapshot.
// Output is byte-identical for byte-identical traces (json.Marshal sorts
// map keys; events are already totally ordered).
func WriteJSONL(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonLine{Schema: SchemaJSONL, Procs: r.Actors()}); err != nil {
		return err
	}
	for _, e := range r.Events() {
		line := jsonLine{
			T: int64(e.T), Actor: e.Actor, Seq: e.Seq,
			Layer: e.Layer, Kind: e.Kind, Tag: e.Tag,
			Size: e.Size, Off: e.Off, Len: e.Len, Dur: int64(e.Dur), Aux: e.Aux,
		}
		if e.Peer >= 0 {
			peer := e.Peer
			line.Peer = &peer
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := enc.Encode(jsonLine{Metrics: r.Metrics()}); err != nil {
		return err
	}
	return bw.Flush()
}

// TraceData is a decoded JSONL trace: what atomtrace analyzes.
type TraceData struct {
	Procs   int
	Events  []Event
	Metrics *Metrics
}

// ReadJSONL decodes a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) (*TraceData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	t := &TraceData{}
	first := true
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line jsonLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("obs: bad trace line: %w", err)
		}
		if first && line.Schema == "" {
			return nil, fmt.Errorf("obs: trace missing %s header", SchemaJSONL)
		}
		first = false
		switch {
		case line.Schema != "":
			if line.Schema != SchemaJSONL {
				return nil, fmt.Errorf("obs: unknown trace schema %q", line.Schema)
			}
			t.Procs = line.Procs
		case line.Metrics != nil:
			for _, k := range sortedHistKeys(line.Metrics.Hists) {
				if line.Metrics.Hists[k] == nil {
					return nil, fmt.Errorf("obs: trace histogram %q is null", k)
				}
			}
			t.Metrics = line.Metrics
		case line.Layer != "":
			e := Event{
				T: sim.VTime(line.T), Actor: line.Actor, Seq: line.Seq,
				Layer: line.Layer, Kind: line.Kind, Tag: line.Tag, Peer: -1,
				Size: line.Size, Off: line.Off, Len: line.Len,
				Dur: sim.VTime(line.Dur), Aux: line.Aux,
			}
			if line.Peer != nil {
				e.Peer = *line.Peer
			}
			t.Events = append(t.Events, e)
		default:
			return nil, fmt.Errorf("obs: unrecognized trace line %q", raw)
		}
	}
	return t, sc.Err()
}

// chromeEvent is one Chrome trace-event object. Timestamps and durations
// are microseconds per the trace-event format; virtual nanoseconds divide
// exactly into thousandths, formatted deterministically by encoding/json.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur,omitempty"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	S    string     `json:"s,omitempty"`
	Args chromeArgs `json:"args"`
}

// chromeArgs carries the event payload into the trace viewer.
type chromeArgs struct {
	Seq  int64  `json:"seq"`
	Tag  string `json:"tag,omitempty"`
	Peer *int   `json:"peer,omitempty"`
	Size int64  `json:"size,omitempty"`
	Off  int64  `json:"off,omitempty"`
	Len  int64  `json:"len,omitempty"`
	Aux  int64  `json:"aux,omitempty"`
}

// chromeDoc is the JSON-object flavour of the trace-event format, which
// Perfetto and chrome://tracing both load.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the trace in Chrome trace-event JSON (Perfetto-
// loadable): spans (Dur > 0) become complete "X" events, instants become
// thread-scoped "i" events; pid 0 holds the run, tid is the actor.
func WriteChrome(w io.Writer, r *Recorder) error {
	events := r.Events()
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ns"}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Layer + "." + e.Kind,
			Cat:  e.Layer,
			TS:   float64(e.T) / 1e3,
			PID:  0,
			TID:  e.Actor,
			Args: chromeArgs{Seq: e.Seq, Tag: e.Tag, Size: e.Size, Off: e.Off, Len: e.Len, Aux: e.Aux},
		}
		if e.Tag != "" {
			ce.Name = ce.Name + ":" + e.Tag
		}
		if e.Peer >= 0 {
			peer := e.Peer
			ce.Args.Peer = &peer
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
