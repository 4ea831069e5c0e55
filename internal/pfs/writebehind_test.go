package pfs

// The write-behind extent log against a model, and the borrow it takes
// against a poisoner. The cache lends the caller's slices when its log is
// already the flush (sorted, disjoint, non-touching) and replays the log into
// fresh buffers otherwise; either way the flush must be what the block-map
// cache produced — dirtyExts.Normalize() in shape, later write wins in
// content — and once Sync returns the store must own every byte it holds.

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

// flush is Client.Sync returning what it flushed.
func flush(c *Client) []Segment {
	segs := c.cache.takeDirty()
	if len(segs) > 0 {
		c.transferWrite(segs)
	}
	return segs
}

// TestWriteBehindLogMatchesModel drives random WriteV scripts from several
// ranks through three file systems — a retaining write-behind cache, a
// non-retaining one (StoreData off) and no cache at all — and a flat byte
// image. The retaining cache must flush the segments the non-retaining one
// does (which are dirtyExts.Normalize() by construction) at the same
// virtual cost, and leave the file the cache-less clients and the image
// hold when each batch is applied in write order at its Sync. Every caller
// buffer is overwritten as soon as its Sync returns.
func TestWriteBehindLogMatchesModel(t *testing.T) {
	const (
		ranks = 3
		span  = 700
		ops   = 300
	)
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := writeBehindConfig(mode)
			lengths, direct := cfg, cfg
			lengths.StoreData = false
			direct.Cache = CacheConfig{}
			fsA, fsB, fsC := MustNew(cfg), MustNew(lengths), MustNew(direct)
			var cA, cB, cC [ranks]*Client
			var clkA, clkB [ranks]*sim.Clock
			for r := 0; r < ranks; r++ {
				clkA[r], clkB[r] = sim.NewClock(0), sim.NewClock(0)
				cA[r], _ = fsA.Open("f", r, clkA[r])
				cB[r], _ = fsB.Open("f", r, clkB[r])
				cC[r], _ = fsC.Open("f", r, sim.NewClock(0))
			}
			image := make([]byte, span+600) // room for a chain of touching segments past span
			var pending [ranks][][]Segment
			rnd := rand.New(rand.NewSource(19 + int64(mode)))
			lent, touching, assembled := 0, 0, 0
			for op := 0; op < ops; op++ {
				r := rnd.Intn(ranks)
				if rnd.Intn(3) > 0 {
					segs := scriptSegs(rnd, span)
					cA[r].WriteV(segs)
					cB[r].WriteV(segs)
					pending[r] = append(pending[r], segs)
					continue
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
				switch {
				case len(log) == 0:
				case log.IsCanonical():
					lent++
				case log.TotalLen() == log.Normalize().TotalLen():
					touching++ // in file order and disjoint, but not coalesced
				default:
					assembled++
				}
				gotA, gotB := shapes(flush(cA[r])), shapes(flush(cB[r]))
				if want := log.Normalize(); !slices.Equal(gotA, want) || !slices.Equal(gotB, want) {
					t.Fatalf("op %d: flushed %v (retaining) and %v (not), want %v", op, gotA, gotB, want)
				}
				for _, segs := range pending[r] {
					for _, s := range segs {
						for i := range s.Data {
							s.Data[i] = 0xEE
						}
					}
				}
				pending[r] = nil

				if clkA[r].Now() != clkB[r].Now() {
					t.Fatalf("op %d: rank %d clock %v retaining, %v not", op, r, clkA[r].Now(), clkB[r].Now())
				}
				if a, b := fsA.ServerStats(), fsB.ServerStats(); !reflect.DeepEqual(a, b) {
					t.Fatalf("op %d: server stats differ:\nretaining %+v\nnot       %+v", op, a, b)
				}
				part := interval.Extent{Off: int64(rnd.Intn(span)), Len: 1 + int64(rnd.Intn(200))}
				for _, e := range []interval.Extent{{Off: 0, Len: int64(len(image))}, part} {
					snapA, _ := fsA.Snapshot("f", e)
					snapC, _ := fsC.Snapshot("f", e)
					if want := image[e.Off:min(e.End(), int64(len(image)))]; !bytes.Equal(snapA[:len(want)], want) || !bytes.Equal(snapC[:len(want)], want) {
						t.Fatalf("op %d: snapshot %v differs from the image\nwrite-behind %x\ncache-less   %x\nimage        %x",
							op, e, snapA, snapC, want)
					}
				}
				extA, _ := fsA.WrittenExtents("f")
				extC, _ := fsC.WrittenExtents("f")
				if !extA.Equal(extC) {
					t.Fatalf("op %d: written extents %v through the cache, %v without", op, extA, extC)
				}
			}
			if lent == 0 || touching == 0 || assembled == 0 {
				t.Fatalf("script flushed %d canonical, %d disjoint but touching and %d overlapping logs; it must make all three",
					lent, touching, assembled)
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
				for i, off := range log.offs {
					buf := bytes.Repeat([]byte{byte('a' + i)}, 30)
					bufs = append(bufs, buf)
					c.WriteAt(off, buf)
				}
				if lend := c.cache.dirtyExts.IsCanonical(); lend != (log.name == "lent") {
					t.Fatalf("log %v canonical = %v", c.cache.dirtyExts, lend)
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
