package pfs

// Property tests pinning the per-server striped store to the shared-store
// oracle: on any healthy configuration the two layouts must be observably
// identical — same read bytes, same snapshots, same written extents, same
// owners, same file sizes, and byte-identical virtual clocks after every
// operation.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// sharedStore is the pre-striping content layout, kept as the oracle: one
// flat image of the file every server writes into, the rank whose data each
// byte is, and the set of bytes ever written. Two writes to the same bytes
// land in arrival order, so overlapping segment writes from different ranks
// genuinely interleave. The two layouts are observably identical on every
// healthy configuration: stripes partition the byte space, and records
// replay in global write order.
type sharedStore struct {
	data    []byte
	writer  []int
	written index.Set
}

func (s *sharedStore) write(_ *writeCall, e interval.Extent, src source) {
	if grow := int(e.End()) - len(s.data); grow > 0 {
		s.data = append(s.data, make([]byte, grow)...)
		s.writer = append(s.writer, make([]int, grow)...)
	}
	s.written.Add(e)
	src.each(e, func(run interval.Extent, data []byte, writer int) {
		copy(s.data[run.Off:], data)
		for off := run.Off; off < run.End(); off++ {
			s.writer[off] = writer
		}
	})
}

func (s *sharedStore) read(off int64, buf []byte) {
	clear(buf)
	if off < int64(len(s.data)) {
		copy(buf, s.data[off:])
	}
}

func (s *sharedStore) extents() interval.List {
	return s.written.Extents()
}

func (s *sharedStore) owners() []index.Owned {
	var out []index.Owned
	for _, e := range s.written.Extents() {
		for off := e.Off; off < e.End(); off++ {
			if n := len(out); n > 0 && out[n-1].End() == off && out[n-1].Rank == s.writer[off] {
				out[n-1].Len++
				continue
			}
			out = append(out, index.Owned{Extent: interval.Extent{Off: off, Len: 1}, Rank: s.writer[off]})
		}
	}
	return out
}

// withSharedStore gives fs's file "f" — the one file the oracle tests
// use — the shared-store layout, before anything opens it.
func withSharedStore(fs *FileSystem) *FileSystem {
	fs.files["f"] = &file{name: "f", content: &sharedStore{}}
	return fs
}

// oraclePair builds the same file system twice: once on per-server stores,
// once on the shared-store oracle layout.
func oraclePair(servers int, mode StripeMode) (striped, shared *FileSystem) {
	cfg := Config{
		Servers:      servers,
		StripeSize:   16,
		Mode:         mode,
		ServerModel:  sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel:  sim.LinearCost{Latency: 5 * sim.Microsecond, BytesPerSec: 8 << 20},
		SegOverhead:  sim.Microsecond,
		StoreData:    true,
		AtomicListIO: true,
	}
	return MustNew(cfg), withSharedStore(MustNew(cfg))
}

// TestStripedStoreMatchesSharedOracle drives randomized read/write/listio
// workloads from several client ranks through both layouts for servers ∈
// {1, 4, 7} × both stripe modes, comparing every observable after every
// operation.
func TestStripedStoreMatchesSharedOracle(t *testing.T) {
	const (
		ranks = 5
		span  = 2000
		ops   = 400
	)
	for _, servers := range []int{1, 4, 7} {
		for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
			t.Run(fmt.Sprintf("S%d/%s", servers, mode), func(t *testing.T) {
				fsS, fsO := oraclePair(servers, mode)
				var cS, cO [ranks]*Client
				var clkS, clkO [ranks]*sim.Clock
				for r := 0; r < ranks; r++ {
					clkS[r], clkO[r] = sim.NewClock(0), sim.NewClock(0)
					var err error
					if cS[r], err = fsS.Open("f", r, clkS[r]); err != nil {
						t.Fatal(err)
					}
					if cO[r], err = fsO.Open("f", r, clkO[r]); err != nil {
						t.Fatal(err)
					}
				}
				rnd := rand.New(rand.NewSource(int64(servers)*31 + int64(mode)))
				randSegs := func(n int) []Segment {
					segs := make([]Segment, n)
					for i := range segs {
						data := make([]byte, 1+rnd.Intn(120))
						rnd.Read(data)
						segs[i] = Segment{Off: int64(rnd.Intn(span)), Data: data}
					}
					return segs
				}
				for op := 0; op < ops; op++ {
					r := rnd.Intn(ranks)
					switch rnd.Intn(5) {
					case 0: // contiguous write
						segs := randSegs(1)
						cS[r].WriteAt(segs[0].Off, segs[0].Data)
						cO[r].WriteAt(segs[0].Off, segs[0].Data)
					case 1: // vectored write
						segs := randSegs(1 + rnd.Intn(3))
						cS[r].WriteV(segs)
						cO[r].WriteV(segs)
					case 2: // atomic listio write
						segs := randSegs(1 + rnd.Intn(3))
						if err := cS[r].WriteAtomic(batchOf(segs)); err != nil {
							t.Fatal(err)
						}
						if err := cO[r].WriteAtomic(batchOf(segs)); err != nil {
							t.Fatal(err)
						}
					case 3: // read
						off := int64(rnd.Intn(span))
						bufS := make([]byte, 1+rnd.Intn(300))
						bufO := make([]byte, len(bufS))
						cS[r].ReadAt(off, bufS)
						cO[r].ReadAt(off, bufO)
						if !bytes.Equal(bufS, bufO) {
							t.Fatalf("op %d: read [%d,%d) differs between layouts", op, off, off+int64(len(bufS)))
						}
					case 4: // vectored read
						segsS := randSegs(2)
						segsO := make([]Segment, len(segsS))
						for i, s := range segsS {
							segsS[i].Data = make([]byte, len(s.Data))
							segsO[i] = Segment{Off: s.Off, Data: make([]byte, len(s.Data))}
						}
						cS[r].Read(batchOf(segsS))
						cO[r].Read(batchOf(segsO))
						for i := range segsS {
							if !bytes.Equal(segsS[i].Data, segsO[i].Data) {
								t.Fatalf("op %d: vectored read seg %d differs", op, i)
							}
						}
					}
					if clkS[r].Now() != clkO[r].Now() {
						t.Fatalf("op %d: rank %d clocks diverged: striped %v, shared %v",
							op, r, clkS[r].Now(), clkO[r].Now())
					}
				}
				// Final cross-server merges: extents, size, full snapshot.
				extS, err := fsS.WrittenExtents("f")
				if err != nil {
					t.Fatal(err)
				}
				extO, err := fsO.WrittenExtents("f")
				if err != nil {
					t.Fatal(err)
				}
				if !extS.Equal(extO) {
					t.Fatalf("written extents differ:\nstriped %v\nshared  %v", extS, extO)
				}
				ownS, _ := fsS.Owners("f")
				ownO, _ := fsO.Owners("f")
				if !reflect.DeepEqual(ownS, ownO) {
					t.Fatalf("owners differ:\nstriped %v\nshared  %v", ownS, ownO)
				}
				sizeS, _ := fsS.FileSize("f")
				sizeO, _ := fsO.FileSize("f")
				if sizeS != sizeO {
					t.Fatalf("file sizes differ: striped %d, shared %d", sizeS, sizeO)
				}
				full := interval.Extent{Off: 0, Len: span + 256}
				snapS, err := fsS.Snapshot("f", full)
				if err != nil {
					t.Fatal(err)
				}
				snapO, err := fsO.Snapshot("f", full)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snapS, snapO) {
					for i := range snapS {
						if snapS[i] != snapO[i] {
							t.Fatalf("snapshot differs first at byte %d: striped %#x, shared %#x",
								i, snapS[i], snapO[i])
						}
					}
				}
			})
		}
	}
}

// TestAffinityOverwriteAcrossServers pins the cross-server merge read: in
// affinity mode two ranks on different servers write the same range, and a
// reader must see the later write even though both copies exist on
// different servers' stores.
func TestAffinityOverwriteAcrossServers(t *testing.T) {
	fsS, fsO := oraclePair(4, ClientAffinity)
	for i, fs := range []*FileSystem{fsS, fsO} {
		c0, _ := fs.Open("f", 0, sim.NewClock(0)) // server 0
		c1, _ := fs.Open("f", 1, sim.NewClock(0)) // server 1
		c0.WriteAt(10, []byte("aaaaaaaa"))
		c1.WriteAt(12, []byte("bbbb"))
		c0.WriteAt(14, []byte("cc"))
		// Final content: [10,12) from c0's first write, [12,14) from c1,
		// [14,16) from c0's later write, [16,18) from c0's first write.
		const want = "\x00aabbccaa\x00"
		buf := make([]byte, 10)
		c1.ReadAt(9, buf)
		if string(buf) != want {
			t.Fatalf("shared=%v: merged read = %q, want %q", i == 1, buf, want)
		}
	}
}

// TestRoundRobinStripesPartitionServers pins storage routing: with the
// striped layout each server's store holds exactly the stripes the
// round-robin map assigns it.
func TestRoundRobinStripesPartitionServers(t *testing.T) {
	fs := MustNew(Config{Servers: 4, StripeSize: 16, StoreData: true})
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.WriteAt(0, bytes.Repeat([]byte{1}, 64)) // one full stripe per server
	st := fs.files["f"].content.(*stripedStore)
	for i, recs := range st.servers {
		want := interval.List{{Off: int64(i) * 16, Len: 16}}
		if len(recs) != 1 || !recs[0].ext.Equal(want) {
			t.Fatalf("server %d stores %d records, want one of %v", i, len(recs), want)
		}
	}
}

// TestStoredWriteAllocatesPerRecord pins the record layout's bookkeeping: a
// stored write allocates a constant number of objects per (call, server) —
// the record and its lists, each at its size — so a batch of 4096 extents,
// spread over every server, allocates as many as a batch of 16.
func TestStoredWriteAllocatesPerRecord(t *testing.T) {
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		allocs := func(extents int) float64 {
			b := Batch{Ext: make(interval.List, extents), Data: make([][]byte, extents)}
			buf := make([]byte, 8*extents)
			for i := range b.Ext {
				b.Ext[i], b.Data[i] = interval.Extent{Off: int64(i) * 40, Len: 8}, buf[8*i:8*i+8]
			}
			return testing.AllocsPerRun(100, func() {
				fs := MustNew(Config{Servers: 4, StripeSize: 16, Mode: mode, StoreData: true})
				c, _ := fs.Open("f", 1, sim.NewClock(0))
				c.Write(b)
			})
		}
		// One object either way is slack for the race detector's runtime,
		// which allocates differently for large objects; a per-extent or
		// per-growth allocation would show as thousands or a dozen.
		if small, large := allocs(16), allocs(4096); math.Abs(small-large) > 1 {
			t.Errorf("%s: a stored write of 16 extents allocates %v objects, of 4096 extents %v", mode, small, large)
		}
	}
}
