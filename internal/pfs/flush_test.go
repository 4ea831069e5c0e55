package pfs

// The write-behind flush against the copy it replaced. A flush that is not
// already one canonical batch books the logged extents' Normalize() and
// stores each coalesced extent straight from the logged pieces, in write
// order. Before, it replayed the log into one fresh buffer per coalesced
// extent and stored those; that version is kept here as the oracle.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// copyingTakeDirty is the flush of a write-behind log as it stood before the
// store assembled from the log: a log already in flushed form goes as it
// stands, any other is normalized and replayed, in write order, into one
// buffer per coalesced extent.
func copyingTakeDirty(log []Segment) []Segment {
	logged := make(interval.List, len(log))
	for k, s := range log {
		logged[k] = interval.Extent{Off: s.Off, Len: s.Len()}
	}
	if logged.IsCanonical() {
		return log
	}
	exts := logged.Normalize()
	segs := make([]Segment, len(exts))
	for i, e := range exts {
		segs[i] = Segment{Off: e.Off, Data: make([]byte, e.Len)}
	}
	for k, e := range logged {
		if !e.Empty() {
			into := segs[sort.Search(len(exts), func(i int) bool { return exts[i].End() > e.Off })]
			copy(into.Data[e.Off-into.Off:], log[k].Data)
		}
	}
	return segs
}

// filledSeg is n bytes of fill at off.
func filledSeg(off, n int64, fill byte) Segment {
	return Segment{Off: off, Data: bytes.Repeat([]byte{fill}, int(n))}
}

// TestFlushStoresFromTheLog runs the same logs — touching, overlapping and
// self-overwriting batches, then random ones — through a write-behind
// client's Sync and through the copying oracle, in both stripe modes, with
// and without a window in which the writer's affinity server (and the
// stripes it homes) drops writes. After every flush the two file systems
// must hold the same bytes, written extents and damage, have booked the
// same requests and bytes on every server, and have emitted the same
// events, fault drops included.
func TestFlushStoresFromTheLog(t *testing.T) {
	const (
		rank   = 1 // affinity mode homes it on server 1
		span   = 700
		random = 60
		step   = sim.Millisecond // each log is flushed a step after the last
	)
	named := [][][]Segment{
		{{filledSeg(0, 10, 'a'), filledSeg(10, 10, 'b')}, {filledSeg(20, 45, 'c')}},                           // touching
		{{filledSeg(0, 50, 'a')}, {filledSeg(25, 50, 'b'), filledSeg(60, 40, 'c')}},                           // overlapping
		{{filledSeg(8, 30, 'a'), filledSeg(8, 30, 'b')}, {filledSeg(8, 30, 'c'), filledSeg(0, 8, 'd')}},       // self-overwriting
		{{filledSeg(100, 90, 'e'), filledSeg(40, 30, 'f'), filledSeg(70, 30, 'g')}, {filledSeg(95, 10, 'h')}}, // out of order
	}
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		for _, window := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/drops=%v", mode, window), func(t *testing.T) {
				open := func() (*FileSystem, *Client, *sim.Clock, *obs.Recorder) {
					fs, rec := MustNew(writeBehindConfig(mode)), obs.NewRecorder(rank+1, 0)
					fs.SetObs(rec)
					if window {
						fs.SetFault(fault.New(fault.Script{Events: []fault.Event{
							{Kind: fault.ServerCrash, Server: 1, From: 2 * step, Until: 20 * step},
						}}))
					}
					clk := sim.NewClock(0)
					c, _ := fs.Open("f", rank, clk)
					return fs, c, clk, rec
				}
				fsA, cA, clkA, recA := open() // flushes from the log
				fsB, cB, clkB, recB := open() // flushes copies
				rnd := rand.New(rand.NewSource(int64(mode)*2 + 7))
				logs := named
				for range random {
					log := make([][]Segment, 1+rnd.Intn(4))
					for i := range log {
						log[i] = scriptSegs(rnd, span)
					}
					logs = append(logs, log)
				}
				assembled := 0
				for k, log := range logs {
					clkA.AdvanceTo(sim.VTime(k) * step)
					clkB.AdvanceTo(sim.VTime(k) * step)
					var all []Segment
					for _, batch := range log {
						cA.WriteV(batch)
						cB.WriteV(batch)
						all = append(all, batch...)
					}
					if d := cA.cache.dirty; len(d) != 1 || !d[0].Ext.IsCanonical() {
						assembled++
					}
					cA.Sync()
					cB.cache.takeDirty() // empties the log; the oracle flushes instead
					cB.transferWrite(batchOf(copyingTakeDirty(all)), nil)

					if clkA.Now() != clkB.Now() {
						t.Fatalf("log %d: clock %v from the log, %v from copies", k, clkA.Now(), clkB.Now())
					}
					whole := interval.Extent{Off: 0, Len: span + 600}
					snapA, _ := fsA.Snapshot("f", whole)
					snapB, _ := fsB.Snapshot("f", whole)
					if !bytes.Equal(snapA, snapB) {
						t.Fatalf("log %d: stored bytes differ\nfrom the log %x\nfrom copies  %x", k, snapA, snapB)
					}
					extA, _ := fsA.WrittenExtents("f")
					extB, _ := fsB.WrittenExtents("f")
					damA, _ := fsA.Damaged("f")
					damB, _ := fsB.Damaged("f")
					if !extA.Equal(extB) || !reflect.DeepEqual(damA, damB) {
						t.Fatalf("log %d: written %v, damage %v from the log; %v, %v from copies", k, extA, damA, extB, damB)
					}
					if a, b := fsA.ServerStats(), fsB.ServerStats(); !reflect.DeepEqual(a, b) {
						t.Fatalf("log %d: server stats\nfrom the log %+v\nfrom copies  %+v", k, a, b)
					}
					if a, b := recA.Events(), recB.Events(); !reflect.DeepEqual(a, b) {
						t.Fatalf("log %d: events differ:\nfrom the log %+v\nfrom copies  %+v", k, a, b)
					}
				}
				drops := 0
				for _, e := range recA.Events() {
					if e.Kind == obs.KindDrop {
						drops++
					}
				}
				if assembled < random/2 || window != (drops > 0) {
					t.Fatalf("%d of %d logs were assembled and %d writes dropped; the comparison is vacuous", assembled, len(logs), drops)
				}
			})
		}
	}
}

// TestFlushCopiesNothingBeforeTheStore: a flush that coalesces many
// touching and overlapping pieces allocates less than twice the payload it
// flushes — the store's records hold the coalesced bytes once, the last
// write to each, the bookkeeping is per piece, and the bytes go from the
// caller's buffers to the records.
func TestFlushCopiesNothingBeforeTheStore(t *testing.T) {
	const pieces, n = 512, 256 // 64 KB in pieces that overlap their neighbours by half
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := writeBehindConfig(mode)
			cfg.StripeSize = 0
			fs := MustNew(cfg)
			c, _ := fs.Open("f", 0, sim.NewClock(0))
			segs := make([]Segment, pieces)
			for i := range segs {
				segs[i] = filledSeg(int64(i)*n/2, n, byte(i))
			}
			payload := uint64(pieces+1) * n / 2 // the coalesced extent
			c.WriteV(segs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Sync()
			runtime.ReadMemStats(&after)
			allowed := 2 * payload
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("flushing %d bytes in %d pieces allocated %d bytes", payload, pieces, got)
			if got >= allowed {
				t.Errorf("flushing %d bytes allocated %d, want less than %d", payload, got, allowed)
			}
			want := make([]byte, payload)
			for _, s := range segs {
				copy(want[s.Off:], s.Data)
			}
			if snap, _ := fs.Snapshot("f", interval.Extent{Off: 0, Len: int64(payload)}); !bytes.Equal(snap, want) {
				t.Error("flushed bytes differ from the log replayed in write order")
			}
		})
	}
}
