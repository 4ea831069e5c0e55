package pfs

// The write-behind flush against independent expectations. A flush that is
// not already one canonical batch books the logged extents' Normalize() and
// stores each logged batch as its own record, in write order. In shape,
// server traffic and events it must be the flush it replaced, which booked
// the normalized extents as one batch; in ownership, every stored byte must
// be the last logged writer's.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// logged is one logged write: n bytes at off, writer's data.
type logged struct {
	off, n int64
	writer int
}

// writes is the batch of ws, in order.
func writes(ws ...logged) Batch {
	var b Batch
	for _, w := range ws {
		b.Ext = append(b.Ext, interval.Extent{Off: w.off, Len: w.n})
		b.Writers = append(b.Writers, w.writer)
	}
	return b
}

// TestFlushStoresFromTheLog runs the same logs — touching, overlapping and
// self-overwriting batches, then random ones, their extents named for
// distinct writers — through a write-behind client's Sync and through the
// flush it replaced, which books the log's normalized extents as one batch,
// in both stripe modes, with and without a window in which the writer's
// affinity server (and the stripes it homes) drops writes. After every flush
// the two file systems must hold the same written extents and damage, have
// booked the same requests and bytes on every server, and have emitted the
// same events, fault drops included; and every byte the flush stored must
// be owned by the writer logged last for it.
func TestFlushStoresFromTheLog(t *testing.T) {
	const (
		rank   = 1 // affinity mode homes it on server 1
		span   = 700
		random = 60
		step   = sim.Millisecond // each log is flushed a step after the last
	)
	named := [][]Batch{
		{writes(logged{0, 10, 2}, logged{10, 10, 3}), writes(logged{20, 45, 4})},                      // touching
		{writes(logged{0, 50, 2}), writes(logged{25, 50, 3}, logged{60, 40, 4})},                      // overlapping
		{writes(logged{8, 30, 2}, logged{8, 30, 3}), writes(logged{8, 30, 4}, logged{0, 8, 5})},       // self-overwriting
		{writes(logged{100, 90, 6}, logged{40, 30, 7}, logged{70, 30, 8}), writes(logged{95, 10, 9})}, // out of order
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
				fsB, cB, clkB, recB := open() // books the normalized extents as one batch
				rnd := rand.New(rand.NewSource(int64(mode)*2 + 7))
				logs := named
				for range random {
					log := make([]Batch, 1+rnd.Intn(4))
					for i := range log {
						log[i] = scriptBatch(rnd, span, 10)
					}
					logs = append(logs, log)
				}
				model := slices.Repeat([]int{-1}, span+600) // each byte's writer
				assembled, seen := 0, 0
				for k, log := range logs {
					clkA.AdvanceTo(sim.VTime(k) * step)
					clkB.AdvanceTo(sim.VTime(k) * step)
					var all interval.List
					for _, b := range log {
						cA.Write(b)
						cB.Write(b)
						all = append(all, b.Ext...)
					}
					if d := cA.cache.dirty; len(d) != 1 || !d[0].Ext.IsCanonical() {
						assembled++
					}
					cA.Sync()
					cB.cache.takeDirty() // empties the log; the reference books it instead
					one := all.Normalize()
					cB.transferWrite(Batch{Ext: one}, nil, one.TotalLen())

					if clkA.Now() != clkB.Now() {
						t.Fatalf("log %d: clock %v from the log, %v booked as one batch", k, clkA.Now(), clkB.Now())
					}
					damA, _ := fsA.Damaged("f")
					damB, _ := fsB.Damaged("f")
					if a, b := written(t, fsA, "f"), written(t, fsB, "f"); !slices.Equal(a, b) || !reflect.DeepEqual(damA, damB) {
						t.Fatalf("log %d: written %v, damage %v from the log; %v, %v booked as one batch", k, a, damA, b, damB)
					}
					if a, b := fsA.ServerStats(), fsB.ServerStats(); !reflect.DeepEqual(a, b) {
						t.Fatalf("log %d: server stats\nfrom the log %+v\nas one batch %+v", k, a, b)
					}
					events := recA.Events()
					if b := recB.Events(); !reflect.DeepEqual(events, b) {
						t.Fatalf("log %d: events differ:\nfrom the log %+v\nas one batch %+v", k, events, b)
					}
					// The model: the log replayed in write order over the bytes
					// this flush did not drop.
					dropped := make([]bool, len(model))
					for _, ev := range events[seen:] {
						if ev.Kind == obs.KindDrop {
							for o := ev.Off; o < ev.Off+ev.Len; o++ {
								dropped[o] = true
							}
						}
					}
					seen = len(events)
					for _, b := range log {
						for i, e := range b.Ext {
							for o := e.Off; o < e.End(); o++ {
								if !dropped[o] {
									model[o] = b.writer(i, rank)
								}
							}
						}
					}
					want := make([]byte, len(model))
					for o, w := range model {
						want[o] = '.'
						if w >= 0 {
							want[o] = byte('0' + w)
						}
					}
					if got := image(t, fsA, "f", 0, int64(len(model))); got != string(want) {
						t.Fatalf("log %d: owners differ from the log replayed in write order\ngot  %s\nwant %s", k, got, want)
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
// touching and overlapping pieces allocates a bounded amount per piece —
// the coalesced extents and the log's records, none of them a copy of a
// piece list — and stores the last write to each byte.
func TestFlushCopiesNothingBeforeTheStore(t *testing.T) {
	const pieces, n = 512, 256 // pieces that overlap their neighbours by half
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := writeBehindConfig(mode)
			cfg.StripeSize = 0
			fs := MustNew(cfg)
			c, _ := fs.Open("f", 0, sim.NewClock(0))
			var ws []logged
			for i := range pieces {
				ws = append(ws, logged{int64(i) * n / 2, n, i % 10})
			}
			c.Write(writes(ws...))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Sync()
			runtime.ReadMemStats(&after)
			const allowed = 256 * pieces
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("flushing %d pieces allocated %d bytes", pieces, got)
			if got >= allowed {
				t.Errorf("flushing %d pieces allocated %d bytes, want less than %d", pieces, got, allowed)
			}
			want := make([]byte, (pieces+1)*n/2)
			for _, w := range ws {
				for o := w.off; o < w.off+w.n; o++ {
					want[o] = byte('0' + w.writer)
				}
			}
			if got := image(t, fs, "f", 0, int64(len(want))); got != string(want) {
				t.Error("flushed owners differ from the log replayed in write order")
			}
		})
	}
}
