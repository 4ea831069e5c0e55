package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"atomio/internal/obs"
	"atomio/internal/sim/des"
)

// Schema identifies the emitted result format, for future trajectory
// tracking over BENCH_*.json files.
const Schema = "atomio.bench/v1"

// Record is one cell's outcome flattened for machine consumption. Virtual
// times are integer nanoseconds of simulated time; WallNS is real time.
type Record struct {
	ID           string  `json:"id"`
	Platform     string  `json:"platform"`
	M            int     `json:"m"`
	N            int     `json:"n"`
	Procs        int     `json:"procs"`
	Overlap      int     `json:"overlap"`
	Pattern      string  `json:"pattern"`
	Strategy     string  `json:"strategy"`
	Engine       string  `json:"engine"`
	LockShards   int     `json:"lock_shards,omitempty"`
	Servers      int     `json:"servers,omitempty"`
	Scenario     string  `json:"scenario,omitempty"`
	Fault        string  `json:"fault,omitempty"`
	Recovery     bool    `json:"recovery,omitempty"`
	ArrayBytes   int64   `json:"array_bytes"`
	WrittenBytes int64   `json:"written_bytes"`
	MakespanNS   int64   `json:"makespan_ns"`
	BandwidthMBs float64 `json:"bandwidth_mbs"`
	WallNS       int64   `json:"wall_ns"`
	// Messages is the total simulated point-to-point message count
	// (collectives included), from the metrics registry of traced cells
	// (zero when the cell ran without TraceEvents).
	Messages int64 `json:"messages,omitempty"`
	// MaxQueueDepth is the deepest any I/O server queue got during the run
	// (traced cells only).
	MaxQueueDepth int64 `json:"max_queue_depth,omitempty"`
	// LockWaitP50NS and LockWaitP99NS are virtual lock-wait quantiles
	// (request to grant) from the traced histogram, as power-of-two bucket
	// upper bounds (traced locking cells only).
	LockWaitP50NS int64 `json:"lock_wait_p50_ns,omitempty"`
	LockWaitP99NS int64 `json:"lock_wait_p99_ns,omitempty"`
	// Verdict is the atomicity classification of verified cells
	// (serializable / torn / recovered-serializable; empty when the cell
	// did not verify content).
	Verdict string `json:"verdict,omitempty"`
	// Replayed lists the ranks whose write-ahead intents recovery
	// replayed, ascending.
	Replayed []int `json:"replayed,omitempty"`
	// ServerStats is the per-server statistics layer: one entry per
	// simulated I/O server, in server order.
	ServerStats []ServerStat `json:"server_stats,omitempty"`
	Error       string       `json:"error,omitempty"`
}

// ServerStat is one I/O server's traffic and queue occupancy in a record.
type ServerStat struct {
	Server   int   `json:"server"`
	Requests int64 `json:"requests"`
	Bytes    int64 `json:"bytes"`
	// BusyNS is the total virtual service time charged on the server;
	// BusyNS/MakespanNS is the server's queue occupancy.
	BusyNS int64 `json:"busy_ns"`
	// FreeAtNS is the virtual time at which the server's queue drains.
	FreeAtNS int64 `json:"free_at_ns"`
}

// Document wraps records with the schema tag; it is the JSON file layout.
type Document struct {
	Schema  string   `json:"schema"`
	Records []Record `json:"records"`
}

// Records flattens results into records, in grid order. Failed cells carry
// their error string and zero metrics.
func Records(results []CellResult) []Record {
	out := make([]Record, len(results))
	engine := des.New().Name() // the one engine harness.Experiment.Run uses
	for i, r := range results {
		e := r.Cell.Experiment
		rec := Record{
			ID:         r.Cell.ID,
			Platform:   e.Platform.Name,
			M:          e.M,
			N:          e.N,
			Procs:      e.Procs,
			Overlap:    e.Overlap,
			Pattern:    e.Pattern.String(),
			Strategy:   e.Strategy.Name(),
			Engine:     engine,
			LockShards: e.LockShards,
			Servers:    e.Servers,
			Recovery:   e.Recovery,
			WallNS:     r.Wall.Nanoseconds(),
		}
		if e.Scenario != nil {
			rec.Scenario = e.Scenario.Name
		}
		if e.Faults != nil {
			rec.Fault = e.Faults.Name
		}
		if r.Err != nil {
			rec.Error = r.Err.Error()
		} else if r.Result != nil {
			rec.ArrayBytes = r.Result.ArrayBytes
			rec.WrittenBytes = r.Result.WrittenBytes
			rec.MakespanNS = int64(r.Result.Makespan)
			rec.BandwidthMBs = r.Result.BandwidthMBs
			rec.Verdict = string(r.Result.Verdict)
			rec.Replayed = append([]int(nil), r.Result.Replayed...)
			if m := r.Result.Metrics; m != nil {
				rec.Messages = m.Counter(obs.MetricMsgs)
				rec.MaxQueueDepth = m.Gauge(obs.MetricQueueDepth)
				rec.LockWaitP50NS = m.Quantile(obs.MetricLockWait, 0.50)
				rec.LockWaitP99NS = m.Quantile(obs.MetricLockWait, 0.99)
			}
			for _, s := range r.Result.ServerStats {
				rec.ServerStats = append(rec.ServerStats, ServerStat{
					Server:   s.Server,
					Requests: s.Requests,
					Bytes:    s.Bytes,
					BusyNS:   int64(s.Busy),
					FreeAtNS: int64(s.FreeAt),
				})
			}
		}
		out[i] = rec
	}
	return out
}

// WriteJSON emits records as an indented JSON document.
func WriteJSON(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Document{Schema: Schema, Records: recs})
}

// EmitFiles writes results to the requested paths — JSON, CSV, or both.
// Empty paths are skipped.
func EmitFiles(jsonPath, csvPath string, results []CellResult) error {
	recs := Records(results)
	write := func(path string, emit func(io.Writer, []Record) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f, recs); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(jsonPath, WriteJSON); err != nil {
		return err
	}
	return write(csvPath, WriteCSV)
}

// csvHeader is the CSV column order; it mirrors Record field order. The
// server_stats column packs the per-server entries as
// "server:requests:bytes:busy_ns:free_at_ns" joined by ';'.
var csvHeader = []string{
	"id", "platform", "m", "n", "procs", "overlap", "pattern", "strategy",
	"engine", "lock_shards", "servers", "scenario", "fault", "recovery",
	"array_bytes", "written_bytes", "makespan_ns", "bandwidth_mbs",
	"wall_ns", "verdict", "replayed", "server_stats",
	"messages", "max_queue_depth", "lock_wait_p50_ns", "lock_wait_p99_ns",
	"error",
}

// formatReplayed packs the replayed rank list as ';'-joined integers.
func formatReplayed(ranks []int) string {
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = strconv.Itoa(r)
	}
	return strings.Join(parts, ";")
}

// formatServerStats packs per-server stats into the CSV cell encoding.
func formatServerStats(stats []ServerStat) string {
	parts := make([]string, len(stats))
	for i, s := range stats {
		parts[i] = fmt.Sprintf("%d:%d:%d:%d:%d",
			s.Server, s.Requests, s.Bytes, s.BusyNS, s.FreeAtNS)
	}
	return strings.Join(parts, ";")
}

// WriteCSV emits records as CSV with a header row.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range recs {
		row := []string{
			r.ID, r.Platform,
			strconv.Itoa(r.M), strconv.Itoa(r.N),
			strconv.Itoa(r.Procs), strconv.Itoa(r.Overlap),
			r.Pattern, r.Strategy, r.Engine,
			strconv.Itoa(r.LockShards),
			strconv.Itoa(r.Servers),
			r.Scenario,
			r.Fault,
			strconv.FormatBool(r.Recovery),
			strconv.FormatInt(r.ArrayBytes, 10),
			strconv.FormatInt(r.WrittenBytes, 10),
			strconv.FormatInt(r.MakespanNS, 10),
			strconv.FormatFloat(r.BandwidthMBs, 'g', -1, 64),
			strconv.FormatInt(r.WallNS, 10),
			r.Verdict,
			formatReplayed(r.Replayed),
			formatServerStats(r.ServerStats),
			strconv.FormatInt(r.Messages, 10),
			strconv.FormatInt(r.MaxQueueDepth, 10),
			strconv.FormatInt(r.LockWaitP50NS, 10),
			strconv.FormatInt(r.LockWaitP99NS, 10),
			r.Error,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
