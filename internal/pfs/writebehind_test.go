package pfs

// The write-behind log against a model, and the borrows it takes against a
// poisoner. The log is the batches Write was lent, in write order, and a
// flush hands a log of one batch to the servers as it stands when it is
// already the flush (sorted, disjoint, non-touching); any other it books as
// the logged extents' Normalize() and stores from the logged pieces, in
// write order, with no copy in between. Either way the flush must be what a
// cache that always assembles produces — the logged extents' Normalize() in
// shape, later write wins in content — pfs must never write through a slice
// it was lent, and once Sync returns the store must own every byte it holds
// and the cache no part of the caller's batches.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"atomio/internal/interval"
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
			Enabled:     true,
			BlockSize:   64,
			WriteBehind: true,
			MemModel:    sim.LinearCost{Latency: 100, BytesPerSec: 1 << 30},
		},
	}
}

// scriptSegs draws one WriteV of the shapes the log has to get right:
// segments that overlap, touch, duplicate or precede the one before, empty
// ones, ones long enough to cross stripes and cache blocks, and whole
// requests in file order with and without touching neighbours.
func scriptSegs(rnd *rand.Rand, span int) []Segment {
	segs := make([]Segment, 1+rnd.Intn(5))
	for i := range segs {
		data := make([]byte, 1+rnd.Intn(90))
		rnd.Read(data)
		off := int64(rnd.Intn(span))
		if i > 0 {
			prev := segs[i-1]
			switch rnd.Intn(6) {
			case 0: // touching: starts where the previous one ends
				off = prev.Off + prev.Len()
			case 1: // the same extent again, different bytes
				if n := len(prev.Data); n > 0 {
					off, data = prev.Off, make([]byte, n)
					rnd.Read(data)
				}
			case 2: // overlapping the previous one's tail
				off = prev.Off + prev.Len()/2
			case 3: // empty
				data = data[:0]
			}
		}
		segs[i] = Segment{Off: off, Data: data}
	}
	if sorted := rnd.Intn(4); sorted < 2 {
		// A request in file order: canonical when every segment leaves a
		// gap (sorted == 0), merely sorted when some touch the next.
		off := int64(rnd.Intn(span / 4))
		for i := range segs {
			if len(segs[i].Data) == 0 {
				segs[i].Data = []byte{byte(i)}
			}
			segs[i].Off = off
			off += segs[i].Len()
			if sorted == 0 || rnd.Intn(2) == 0 {
				off += 1 + int64(rnd.Intn(20))
			}
		}
	}
	return segs
}

// flush is Client.Sync returning the extents it flushed.
func flush(c *Client) interval.List {
	b, log := c.cache.takeDirty()
	if len(b.Ext) > 0 {
		c.transferWrite(b, log)
	}
	return b.Ext
}

// borrowed is one slice handed to WriteV beside a copy of its headers: until
// the Sync pfs may read the slice, and it may never write it.
type borrowed struct{ segs, was []Segment }

func (b borrowed) intact() bool {
	return slices.EqualFunc(b.segs, b.was, func(s, w Segment) bool {
		return s.Off == w.Off && s.N == w.N && len(s.Data) == len(w.Data) &&
			(len(s.Data) == 0 || &s.Data[0] == &w.Data[0])
	})
}

// ownLog makes c's next flush assemble: an empty log is seeded with one empty
// batch, so it is never one batch handed over as it stands. It is the
// reference the other clients' flushes are held to.
func ownLog(c *Client) {
	if len(c.cache.dirty) == 0 {
		c.cache.dirty = append(c.cache.dirty, Batch{})
	}
}

// TestWriteBehindLogMatchesModel drives random WriteV scripts from several
// ranks through four file systems — a retaining write-behind cache, a
// non-retaining one (StoreData off), a retaining one that always assembles
// its flush (ownLog) and no cache at all — and a flat byte image. All
// three caches must flush the normalized form of the extents written since
// the last Sync at the same virtual cost, a read before the Sync must see
// the client's own unflushed bytes over the store's, and the file must be
// the one the cache-less clients and the image hold when each batch is
// applied in write order at its Sync. Batches arrive whole or one segment
// per WriteV in any order — windows onto the caller's array with room behind
// them — and no slice handed over may ever differ from the copy taken
// before. Every caller buffer and every caller slice is overwritten as soon
// as its Sync returns.
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
			image := make([]byte, span+600) // room for a chain of touching segments past span
			var pending [ranks][][]Segment
			var lentOut [ranks][]borrowed
			rnd := rand.New(rand.NewSource(19 + int64(mode)))
			lent, touching, assembled, windows, reads := 0, 0, 0, 0, 0
			for op := 0; op < ops; op++ {
				r := rnd.Intn(ranks)
				if rnd.Intn(3) > 0 {
					segs := scriptSegs(rnd, span)
					lentOut[r] = append(lentOut[r], borrowed{segs, slices.Clone(segs)})
					batches := [][]Segment{segs}
					if rnd.Intn(4) == 0 {
						batches = batches[:0]
						for _, i := range rnd.Perm(len(segs)) {
							batches = append(batches, segs[i:i+1])
						}
						windows++
					}
					for _, batch := range batches {
						ownLog(cN[r])
						cA[r].WriteV(batch)
						cB[r].WriteV(batch)
						cN[r].WriteV(batch)
						pending[r] = append(pending[r], batch)
					}
					continue
				}
				if rnd.Intn(2) == 0 {
					// Read-your-own-writes, whoever's slice the log is. The
					// non-retaining client reads too, to keep its clock and
					// its readable blocks in step.
					e := interval.Extent{Off: int64(rnd.Intn(span)), Len: 1 + int64(rnd.Intn(200))}
					want := bytes.Clone(image[e.Off:e.End()])
					for _, segs := range pending[r] {
						for _, s := range segs {
							if ov := e.Intersect(interval.Extent{Off: s.Off, Len: s.Len()}); !ov.Empty() {
								copy(want[ov.Off-e.Off:ov.End()-e.Off], s.Data[ov.Off-s.Off:])
							}
						}
					}
					for _, c := range []*Client{cA[r], cB[r], cN[r]} {
						got := make([]byte, e.Len)
						c.ReadAt(e.Off, got)
						if c != cB[r] && !bytes.Equal(got, want) {
							t.Fatalf("op %d: rank %d read %v before its Sync:\ngot  %x\nwant %x", op, r, e, got, want)
						}
					}
					reads++
				}
				var log interval.List
				for _, segs := range pending[r] {
					cC[r].WriteV(segs)
					for _, s := range segs {
						copy(image[s.Off:], s.Data)
						if s.Len() > 0 {
							log = append(log, interval.Extent{Off: s.Off, Len: s.Len()})
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
				for _, b := range lentOut[r] {
					if !b.intact() {
						t.Fatalf("op %d: pfs wrote through a slice it was lent: %v, was %v", op, shapes(b.segs), shapes(b.was))
					}
					// The borrow is over: the bytes and the slice are the
					// caller's to reuse.
					for i, s := range b.segs {
						for j := range s.Data {
							s.Data[j] = 0xEE
						}
						b.segs[i] = Segment{Off: 1 << 40, Data: []byte{0xEE}}
					}
				}
				pending[r], lentOut[r] = nil, nil

				if clkA[r].Now() != clkB[r].Now() || clkA[r].Now() != clkN[r].Now() {
					t.Fatalf("op %d: rank %d clock %v retaining, %v not, %v with its own log",
						op, r, clkA[r].Now(), clkB[r].Now(), clkN[r].Now())
				}
				statsA := fsA.ServerStats()
				if b, n := fsB.ServerStats(), fsN.ServerStats(); !reflect.DeepEqual(statsA, b) || !reflect.DeepEqual(statsA, n) {
					t.Fatalf("op %d: server stats differ:\nretaining %+v\nnot       %+v\nown log   %+v", op, statsA, b, n)
				}
				part := interval.Extent{Off: int64(rnd.Intn(span)), Len: 1 + int64(rnd.Intn(200))}
				for _, e := range []interval.Extent{{Off: 0, Len: int64(len(image))}, part} {
					snapA, _ := fsA.Snapshot("f", e)
					snapC, _ := fsC.Snapshot("f", e)
					snapN, _ := fsN.Snapshot("f", e)
					want := image[e.Off:min(e.End(), int64(len(image)))]
					if !bytes.Equal(snapA[:len(want)], want) || !bytes.Equal(snapC[:len(want)], want) || !bytes.Equal(snapN[:len(want)], want) {
						t.Fatalf("op %d: snapshot %v differs from the image\nwrite-behind %x\ncache-less   %x\nown log      %x\nimage        %x",
							op, e, snapA, snapC, snapN, want)
					}
				}
				extA, _ := fsA.WrittenExtents("f")
				extC, _ := fsC.WrittenExtents("f")
				if !extA.Equal(extC) {
					t.Fatalf("op %d: written extents %v through the cache, %v without", op, extA, extC)
				}
			}
			if lent == 0 || touching == 0 || assembled == 0 || windows == 0 || reads == 0 {
				t.Fatalf("script flushed %d logs of one canonical batch, %d other disjoint and %d overlapping logs, wrote %d requests "+
					"one segment at a time and read %d times before a Sync; it must do all five",
					lent, touching, assembled, windows, reads)
			}
		})
	}
}

// TestStoreOwnsItsBytesAfterSync is the borrow's far end: bytes handed to
// WriteV belong to the caller again once Sync returns, so scribbling on
// them must not reach the file — on a flush that lent the caller's slices
// to the store as they were, and on one that assembled them first.
func TestStoreOwnsItsBytesAfterSync(t *testing.T) {
	logs := []struct {
		name string
		offs []int64
	}{
		{"lent", []int64{0, 40, 100, 300}},    // canonical as written
		{"assembled", []int64{40, 0, 20, 70}}, // out of order, overlapping, touching
	}
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		for _, log := range logs {
			t.Run(fmt.Sprintf("%s/%s", mode, log.name), func(t *testing.T) {
				fs := MustNew(writeBehindConfig(mode))
				c, _ := fs.Open("f", 1, sim.NewClock(0))
				var bufs [][]byte
				var segs []Segment
				for i, off := range log.offs {
					buf := bytes.Repeat([]byte{byte('a' + i)}, 30)
					bufs = append(bufs, buf)
					segs = append(segs, Segment{Off: off, Data: buf})
				}
				if log.name == "lent" {
					c.WriteV(segs) // one canonical batch: the flush lends it on
				} else {
					for _, s := range segs {
						c.WriteAt(s.Off, s.Data)
					}
				}
				dirty := c.cache.dirty
				if lend := len(dirty) == 1 && dirty[0].Ext.IsCanonical(); lend != (log.name == "lent") {
					t.Fatalf("log of %d batches, the first %v: lent as it stands = %v", len(dirty), dirty[0].Ext, lend)
				}
				c.Sync()
				whole := interval.Extent{Off: 0, Len: 400}
				before, _ := fs.Snapshot("f", whole)
				for _, buf := range bufs {
					for i := range buf {
						buf[i] = 0xEE
					}
				}
				after, _ := fs.Snapshot("f", whole)
				if !bytes.Equal(before, after) {
					t.Fatal("scribbling on a caller buffer after Sync changed the file")
				}
				if bytes.Contains(after, []byte{0xEE}) || !bytes.Contains(after, []byte("dddd")) {
					t.Fatalf("file content wrong: %q", after)
				}
			})
		}
	}
}
