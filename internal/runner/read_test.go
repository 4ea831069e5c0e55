package runner

// The readers of the two result formats. No command reads results back, so
// they live with the tests: they are the round-trip oracle that pins what
// WriteJSON and WriteCSV emit (emit_test.go, fleet_test.go) and the
// subjects of FuzzReadJSON and FuzzReadCSV.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadJSON parses a document written by WriteJSON. The input must be that
// one document: anything but whitespace after it is an error.
func ReadJSON(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var doc Document
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("runner: decoding JSON results: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("runner: JSON results continue after the document")
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("runner: unexpected schema %q (want %q)", doc.Schema, Schema)
	}
	for i, rec := range doc.Records { // an empty list reads as absent, as WriteJSON omits it
		doc.Records[i].Replayed = append([]int(nil), rec.Replayed...)
		doc.Records[i].ServerStats = append([]ServerStat(nil), rec.ServerStats...)
	}
	return doc.Records, nil
}

// parseReplayed is the inverse of formatReplayed.
func parseReplayed(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("runner: replayed rank %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseServerStats is the inverse of formatServerStats.
func parseServerStats(s string) ([]ServerStat, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]ServerStat, len(parts))
	for i, p := range parts {
		fields := strings.Split(p, ":")
		if len(fields) != 5 {
			return nil, fmt.Errorf("runner: server stat %q has %d fields, want 5", p, len(fields))
		}
		var err error
		get := func(k int) int64 {
			if err != nil {
				return 0
			}
			var v int64
			v, err = strconv.ParseInt(fields[k], 10, 64)
			return v
		}
		out[i] = ServerStat{
			Server:   int(get(0)),
			Requests: get(1),
			Bytes:    get(2),
			BusyNS:   get(3),
			FreeAtNS: get(4),
		}
		if err != nil {
			return nil, fmt.Errorf("runner: server stat %q: %w", p, err)
		}
	}
	return out, nil
}

// ReadCSV parses a file written by WriteCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("runner: decoding CSV results: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("runner: CSV results missing header")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("runner: CSV header has %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	for i, name := range csvHeader {
		if rows[0][i] != name {
			return nil, fmt.Errorf("runner: CSV column %d is %q, want %q", i, rows[0][i], name)
		}
	}
	recs := make([]Record, 0, len(rows)-1)
	for n, row := range rows[1:] {
		rec := Record{ID: row[0], Platform: row[1], Pattern: row[6], Strategy: row[7],
			Engine: row[8], Scenario: row[11], Fault: row[12], Verdict: row[19],
			Error: row[26]}
		var err error
		parse := func(i int, dst *int) {
			if err == nil {
				*dst, err = strconv.Atoi(row[i])
			}
		}
		parse64 := func(i int, dst *int64) {
			if err == nil {
				*dst, err = strconv.ParseInt(row[i], 10, 64)
			}
		}
		parse(2, &rec.M)
		parse(3, &rec.N)
		parse(4, &rec.Procs)
		parse(5, &rec.Overlap)
		parse(9, &rec.LockShards)
		parse(10, &rec.Servers)
		if err == nil {
			rec.Recovery, err = strconv.ParseBool(row[13])
		}
		parse64(14, &rec.ArrayBytes)
		parse64(15, &rec.WrittenBytes)
		parse64(16, &rec.MakespanNS)
		if err == nil {
			rec.BandwidthMBs, err = strconv.ParseFloat(row[17], 64)
		}
		// A cell's bandwidth is always finite (and JSON cannot carry NaN).
		if err == nil && (math.IsNaN(rec.BandwidthMBs) || math.IsInf(rec.BandwidthMBs, 0)) {
			err = fmt.Errorf("bandwidth_mbs %q is not finite", row[17])
		}
		parse64(18, &rec.WallNS)
		if err == nil {
			rec.Replayed, err = parseReplayed(row[20])
		}
		if err == nil {
			rec.ServerStats, err = parseServerStats(row[21])
		}
		parse64(22, &rec.Messages)
		parse64(23, &rec.MaxQueueDepth)
		parse64(24, &rec.LockWaitP50NS)
		parse64(25, &rec.LockWaitP99NS)
		if err != nil {
			return nil, fmt.Errorf("runner: CSV row %d: %w", n+2, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
