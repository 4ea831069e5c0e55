package pfs

// The write-behind log against a model, and the lists it is lent. The log
// is the batches Write was lent, in write order, and a flush hands a log of
// one batch to the servers as it stands when it is already the flush
// (sorted, disjoint, non-touching); any other it books as the logged
// extents' Normalize(). Either way the flush must be what a cache that
// always coalesces produces — the logged extents' Normalize() in shape,
// later write wins in ownership — and the store keeps each logged batch as
// its own record, in write order, its lists as they were lent: pfs must
// never write through a list it was lent, and once Sync returns the cache
// must hold no part of the caller's batches.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// writeBehindConfig is a small storing write-behind file system whose
// stripes are short enough for random segments to straddle them.
func writeBehindConfig(mode StripeMode) Config {
	return Config{
		Servers:     3,
		StripeSize:  32,
		Mode:        mode,
		ServerModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel: sim.LinearCost{Latency: 5 * sim.Microsecond, BytesPerSec: 8 << 20},
		SegOverhead: sim.Microsecond,
		StoreData:   true,
		Cache: CacheConfig{
			WriteBehind: true,
			MemModel:    sim.LinearCost{Latency: 100, BytesPerSec: 1 << 30},
		},
	}
}

// scriptBatch draws one Write of the shapes the log has to get right:
// extents that overlap, touch, duplicate or precede the one before, empty
// ones, ones long enough to cross stripes, and whole requests in file order
// with and without touching neighbours. Two batches in three name a writer
// among ranks for each extent, as an aggregator's do.
func scriptBatch(rnd *rand.Rand, span, ranks int) Batch {
	var b Batch
	b.Ext = make(interval.List, 1+rnd.Intn(5))
	for i := range b.Ext {
		e := interval.Extent{Off: int64(rnd.Intn(span)), Len: 1 + int64(rnd.Intn(90))}
		if i > 0 {
			prev := b.Ext[i-1]
			switch rnd.Intn(6) {
			case 0: // touching: starts where the previous one ends
				e.Off = prev.End()
			case 1: // the same extent again
				if prev.Len > 0 {
					e = prev
				}
			case 2: // overlapping the previous one's tail
				e.Off = prev.Off + prev.Len/2
			case 3: // empty
				e.Len = 0
			}
		}
		b.Ext[i] = e
	}
	if sorted := rnd.Intn(4); sorted < 2 {
		// A request in file order: canonical when every extent leaves a
		// gap (sorted == 0), merely sorted when some touch the next.
		off := int64(rnd.Intn(span / 4))
		for i := range b.Ext {
			b.Ext[i].Off, b.Ext[i].Len = off, max(b.Ext[i].Len, 1)
			off += b.Ext[i].Len
			if sorted == 0 || rnd.Intn(2) == 0 {
				off += 1 + int64(rnd.Intn(20))
			}
		}
	}
	if rnd.Intn(3) > 0 {
		b.Writers = make([]int, len(b.Ext))
		for i := range b.Writers {
			b.Writers[i] = rnd.Intn(ranks)
		}
	}
	return b
}

// flush is Client.Sync returning the extents it flushed.
func flush(c *Client) interval.List {
	b, log, total := c.cache.takeDirty()
	defer clear(log)
	c.transferWrite(b, log, total)
	return b.Ext
}

// borrowed is one batch handed to Write beside a copy of its lists: pfs
// may read them for as long as it keeps them, and it may never write them.
type borrowed struct{ b, was Batch }

func lend(b Batch) borrowed {
	return borrowed{b, Batch{Ext: slices.Clone(b.Ext), Writers: slices.Clone(b.Writers)}}
}

func (l borrowed) intact() bool {
	return slices.Equal(l.b.Ext, l.was.Ext) && slices.Equal(l.b.Writers, l.was.Writers)
}

// holdsNone reports whether c's cache has let go of every batch it was
// lent: its log's array holds no list.
func holdsNone(c *Client) bool {
	for _, b := range c.cache.dirty[:cap(c.cache.dirty)] {
		if b.Ext != nil || b.Writers != nil {
			return false
		}
	}
	return true
}

// ownLog makes c's next flush assemble: an empty log is seeded with one empty
// batch, so it is never one batch handed over as it stands. It is the
// reference the other clients' flushes are held to.
func ownLog(c *Client) {
	if len(c.cache.dirty) == 0 {
		c.cache.dirty = append(c.cache.dirty, Batch{})
	}
}

// TestWriteBehindLogMatchesModel drives random Write scripts from several
// ranks through four file systems — a retaining write-behind cache, a
// non-retaining one (StoreData off), a retaining one that always assembles
// its flush (ownLog) and no cache at all — and a flat image of each byte's
// writer. All three caches must flush the normalized form of the extents
// written since the last Sync at the same virtual cost, and the file must be
// owned as the cache-less clients and the image say when each batch is
// applied in write order at its Sync. Batches arrive whole or one extent per Write in any order —
// windows onto the caller's lists with room behind them — and no list
// handed over may ever differ from the copy taken before. Once a Sync
// returns, the cache holds none of them.
func TestWriteBehindLogMatchesModel(t *testing.T) {
	const (
		ranks = 3
		span  = 700
		ops   = 400
	)
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := writeBehindConfig(mode)
			lengths, direct := cfg, cfg
			lengths.StoreData = false
			direct.Cache = CacheConfig{}
			fsA, fsB, fsC, fsN := MustNew(cfg), MustNew(lengths), MustNew(direct), MustNew(cfg)
			var cA, cB, cC, cN [ranks]*Client
			var clkA, clkB, clkN [ranks]*sim.Clock
			for r := 0; r < ranks; r++ {
				clkA[r], clkB[r], clkN[r] = sim.NewClock(0), sim.NewClock(0), sim.NewClock(0)
				cA[r], _ = fsA.Open("f", r, clkA[r])
				cB[r], _ = fsB.Open("f", r, clkB[r])
				cC[r], _ = fsC.Open("f", r, sim.NewClock(0))
				cN[r], _ = fsN.Open("f", r, clkN[r])
			}
			model := slices.Repeat([]int{-1}, span+600) // room for a chain of touching extents past span
			var pending [ranks][]Batch
			var lentOut []borrowed
			rnd := rand.New(rand.NewSource(19 + int64(mode)))
			lent, touching, assembled, windows := 0, 0, 0, 0
			for op := 0; op < ops; op++ {
				r := rnd.Intn(ranks)
				if rnd.Intn(3) > 0 {
					b := scriptBatch(rnd, span, 10)
					lentOut = append(lentOut, lend(b))
					batches := []Batch{b}
					if rnd.Intn(4) == 0 {
						batches = batches[:0]
						for _, i := range rnd.Perm(len(b.Ext)) {
							batches = append(batches, b.Slice(i, i+1))
						}
						windows++
					}
					for _, batch := range batches {
						ownLog(cN[r])
						cA[r].Write(batch)
						cB[r].Write(batch)
						cN[r].Write(batch)
						pending[r] = append(pending[r], batch)
					}
					continue
				}
				var log interval.List
				for _, b := range pending[r] {
					cC[r].Write(b)
					for i, e := range b.Ext {
						for o := e.Off; o < e.End(); o++ {
							model[o] = b.writer(i, r)
						}
						if !e.Empty() {
							log = append(log, e)
						}
					}
				}
				dirty := cA[r].cache.dirty
				switch {
				case len(log) == 0:
				case len(dirty) == 1 && dirty[0].Ext.IsCanonical():
					lent++ // the flush hands the one batch on as it stands
				case log.TotalLen() == log.Normalize().TotalLen():
					touching++ // disjoint, assembled from more than one batch or not coalesced
				default:
					assembled++
				}
				gotA, gotB, gotN := flush(cA[r]), flush(cB[r]), flush(cN[r])
				if want := log.Normalize(); !slices.Equal(gotA, want) || !slices.Equal(gotB, want) || !slices.Equal(gotN, want) {
					t.Fatalf("op %d: flushed %v (retaining), %v (not) and %v (own log), want %v", op, gotA, gotB, gotN, want)
				}
				for _, l := range lentOut {
					if !l.intact() {
						t.Fatalf("op %d: pfs wrote through a list it was lent: %+v, was %+v", op, l.b, l.was)
					}
				}
				if !holdsNone(cA[r]) || !holdsNone(cB[r]) || !holdsNone(cN[r]) {
					t.Fatalf("op %d: a cache holds a batch past its Sync", op)
				}
				pending[r] = nil

				if clkA[r].Now() != clkB[r].Now() || clkA[r].Now() != clkN[r].Now() {
					t.Fatalf("op %d: rank %d clock %v retaining, %v not, %v with its own log",
						op, r, clkA[r].Now(), clkB[r].Now(), clkN[r].Now())
				}
				statsA := fsA.ServerStats()
				if b, n := fsB.ServerStats(), fsN.ServerStats(); !reflect.DeepEqual(statsA, b) || !reflect.DeepEqual(statsA, n) {
					t.Fatalf("op %d: server stats differ:\nretaining %+v\nnot       %+v\nown log   %+v", op, statsA, b, n)
				}
				want := make([]byte, len(model))
				for o, w := range model {
					want[o] = '.'
					if w >= 0 {
						want[o] = byte('0' + w)
					}
				}
				whole := int64(len(model))
				for name, fs := range map[string]*FileSystem{"write-behind": fsA, "cache-less": fsC, "own log": fsN} {
					if got := image(t, fs, "f", 0, whole); got != string(want) {
						t.Fatalf("op %d: %s owners differ from the image\ngot  %s\nwant %s", op, name, got, want)
					}
				}
			}
			if lent == 0 || touching == 0 || assembled == 0 || windows == 0 {
				t.Fatalf("script flushed %d logs of one canonical batch, %d other disjoint and %d overlapping logs and wrote %d requests "+
					"one extent at a time; it must do all four",
					lent, touching, assembled, windows)
			}
		})
	}
}

// TestFlushKeepsTheLoggedBatches is the far end of the lend: a flush stores
// each logged batch as its own record, in write order, its lists the very
// ones Write was lent — on a flush that hands one canonical batch on as it
// stands and on one that coalesces a log of several, out of order,
// overlapping and touching — and the cache holds none of them once Sync
// returns.
func TestFlushKeepsTheLoggedBatches(t *testing.T) {
	logs := []struct {
		name string
		offs []int64
	}{
		{"as-it-stands", []int64{0, 40, 100, 300}}, // canonical as written
		{"coalesced", []int64{40, 0, 20, 70}},      // out of order, overlapping, touching
	}
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		for _, log := range logs {
			t.Run(fmt.Sprintf("%s/%s", mode, log.name), func(t *testing.T) {
				fs := MustNew(writeBehindConfig(mode))
				c, _ := fs.Open("f", 1, sim.NewClock(0))
				b := Batch{}
				for i, off := range log.offs {
					b.Ext = append(b.Ext, interval.Extent{Off: off, Len: 30})
					b.Writers = append(b.Writers, 2+i)
				}
				batches := []Batch{b} // one canonical batch: the flush hands it on
				if log.name == "coalesced" {
					batches = nil
					for i := range b.Ext {
						batches = append(batches, b.Slice(i, i+1))
					}
				}
				for _, one := range batches {
					c.Write(one)
				}
				c.Sync()
				var records []index.Record
				if err := fs.EachRecord("f", func(r index.Record) { records = append(records, r) }); err != nil {
					t.Fatal(err)
				}
				if len(records) != len(batches) {
					t.Fatalf("%d records of %d logged batches", len(records), len(batches))
				}
				for i, r := range records {
					if &r.Ext[0] != &batches[i].Ext[0] || &r.Writers[0] != &batches[i].Writers[0] || r.Writer != 1 {
						t.Fatalf("record %d is %+v, not logged batch %d's lists as lent", i, r, i)
					}
				}
				if !holdsNone(c) {
					t.Fatal("the cache holds a batch past its Sync")
				}
				if got := image(t, fs, "f", 0, 400); !strings.Contains(got, "555555") {
					t.Fatalf("file owners wrong: %s", got)
				}
			})
		}
	}
}
