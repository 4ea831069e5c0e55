package pfs

// Property tests pinning the write log to the owner oracle: a flat array
// of each byte's writer. On any configuration the two must be observably
// identical — same owners, same file sizes, and byte-identical virtual
// clocks after every operation — through server crashes, write-ahead
// replay, write-behind logs whose pieces overlap, and batches naming other
// ranks as writers.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// ownerOracle is the owner oracle: one flat array of the rank whose data
// each byte is, and a flag per byte ever written. Each record overwrites
// the bytes its runs cover as it is added, so a call's records and later
// calls land in the order they are stored.
type ownerOracle struct {
	writer  []int
	written []bool
}

func (s *ownerOracle) add(r index.Record) {
	for k, run := range r.Ext {
		if grow := int(run.End()) - len(s.writer); grow > 0 {
			s.writer = append(s.writer, make([]int, grow)...)
			s.written = append(s.written, make([]bool, grow)...)
		}
		for off := run.Off; off < run.End(); off++ {
			s.writer[off], s.written[off] = r.Writer, true
			if r.Writers != nil {
				s.writer[off] = r.Writers[k]
			}
		}
	}
}

// records visits the array as one record: its maximal runs of one writer,
// in file order.
func (s *ownerOracle) records(visit func(r index.Record)) {
	var r index.Record
	for off, w := range s.written {
		if !w {
			continue
		}
		if n := len(r.Ext) - 1; n >= 0 && r.Ext[n].End() == int64(off) && r.Writers[n] == s.writer[off] {
			r.Ext[n].Len++
			continue
		}
		r.Ext = append(r.Ext, interval.Extent{Off: int64(off), Len: 1})
		r.Writers = append(r.Writers, s.writer[off])
	}
	if len(r.Ext) > 0 {
		visit(r)
	}
}

// withOwnerOracle gives fs's file "f" — the one file the oracle tests
// use — the owner oracle for its content, before anything opens it.
func withOwnerOracle(fs *FileSystem) *FileSystem {
	fs.files["f"] = &file{content: &ownerOracle{}}
	return fs
}

// oraclePair builds the same file system twice: once on the write log, once
// on the owner oracle.
func oraclePair(servers int, mode StripeMode) (logged, oracle *FileSystem) {
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
	return MustNew(cfg), withOwnerOracle(MustNew(cfg))
}

// TestStoreMatchesOwnerOracle drives randomized write/listio
// workloads from several client ranks through both stores for servers ∈
// {1, 4, 7} × both stripe modes, comparing every observable; then random
// scenarios with crashes, replay and write-behind logs (see
// randomScenario).
func TestStoreMatchesOwnerOracle(t *testing.T) {
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
				randBatch := func(n int, aggregated bool) Batch {
					var b Batch
					for range n {
						b.Ext = append(b.Ext, interval.Extent{Off: int64(rnd.Intn(span)), Len: 1 + rnd.Int63n(120)})
						if aggregated {
							b.Writers = append(b.Writers, rnd.Intn(ranks))
						}
					}
					return b
				}
				for op := 0; op < ops; op++ {
					r := rnd.Intn(ranks)
					switch rnd.Intn(5) {
					case 0: // contiguous write
						b := randBatch(1, false)
						cS[r].Write(b)
						cO[r].Write(b)
					case 1: // vectored write
						b := randBatch(1+rnd.Intn(3), false)
						cS[r].Write(b)
						cO[r].Write(b)
					case 2: // atomic listio write
						b := randBatch(1+rnd.Intn(3), false)
						if err := cS[r].WriteAtomic(b); err != nil {
							t.Fatal(err)
						}
						if err := cO[r].WriteAtomic(b); err != nil {
							t.Fatal(err)
						}
					case 3: // a long contiguous write, across stripes
						b := Batch{Ext: interval.List{{Off: int64(rnd.Intn(span)), Len: 1 + rnd.Int63n(300)}}}
						cS[r].Write(b)
						cO[r].Write(b)
					case 4: // an aggregator's write, on other ranks' behalf
						b := randBatch(1+rnd.Intn(3), true)
						cS[r].Write(b)
						cO[r].Write(b)
					}
					if clkS[r].Now() != clkO[r].Now() {
						t.Fatalf("op %d: rank %d clocks diverged: log %v, oracle %v",
							op, r, clkS[r].Now(), clkO[r].Now())
					}
				}
				ownS, _ := fsS.Owners("f")
				ownO, _ := fsO.Owners("f")
				if !reflect.DeepEqual(ownS, ownO) {
					t.Fatalf("owners differ:\nlog    %v\noracle %v", ownS, ownO)
				}
				sizeS, _ := fsS.FileSize("f")
				sizeO, _ := fsO.FileSize("f")
				if sizeS != sizeO {
					t.Fatalf("file sizes differ: log %d, oracle %d", sizeS, sizeO)
				}
			})
		}
	}
	t.Run("crashes-replay-write-behind", func(t *testing.T) {
		cases := map[string]int{}
		for seed := range int64(300) {
			cases[randomScenario(t, seed)]++
		}
		for _, c := range []string{"cached=false/batched=false/crash=false", "cached=true/batched=true/crash=false",
			"cached=false/batched=false/crash=true", "cached=true/batched=true/crash=true"} {
			if cases[c] == 0 {
				t.Errorf("no run was %s (%v): the comparison misses a case", c, cases)
			}
		}
	})
}

// randomScenario stores one seed's random batches from several ranks at
// random virtual times — vectored writes and atomic listio, straight to the
// servers and through write-behind logs whose pieces overlap, flushed as
// one record per logged batch, a third of them naming other ranks in
// Writers as an aggregator's do — in either
// stripe mode, with a server crash dropping the pieces routed to it and the
// write-ahead log replayed over the damage, on both stores. They must
// agree on who wrote each byte, on the file size and on every clock. It
// returns which of the cached, several-batch flush and crash cases the seed
// drew.
func randomScenario(t *testing.T, seed int64) string {
	const span = 500
	rnd := rand.New(rand.NewSource(seed))
	p, servers := 2+rnd.Intn(5), 1+rnd.Intn(4)
	cfg := Config{
		Servers: servers, StripeSize: 1 + rnd.Int63n(48), Mode: StripeMode(rnd.Intn(2)),
		ServerModel:  sim.LinearCost{Latency: sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel:  sim.LinearCost{Latency: sim.Microsecond, BytesPerSec: 8 << 20},
		StoreData:    true,
		WAL:          true,
		AtomicListIO: true,
	}
	cached := rnd.Intn(2) == 0
	if cached {
		cfg.Cache = CacheConfig{WriteBehind: true}
	}
	crash := rnd.Intn(2) == 0
	var script fault.Script
	if crash {
		from := sim.VTime(rnd.Intn(3)) * sim.Millisecond
		script.Events = []fault.Event{{Kind: fault.ServerCrash, Server: rnd.Intn(servers), From: from, Until: from + sim.Millisecond}}
	}
	fss := [2]*FileSystem{MustNew(cfg), withOwnerOracle(MustNew(cfg))} // log, oracle
	batched := false                                                   // a flush stored several logged batches
	clients := make([][2]*Client, p)
	clocks := make([][2]*sim.Clock, p)
	for i, fs := range fss {
		if crash {
			fs.SetFault(fault.New(script))
		}
		for rank := range clients {
			clocks[rank][i] = sim.NewClock(0)
			clients[rank][i], _ = fs.Open("f", rank, clocks[rank][i])
		}
	}
	for range 4 * p {
		rank := rnd.Intn(p)
		var b Batch
		off := rnd.Int63n(span)
		for range 1 + rnd.Intn(5) {
			if rnd.Intn(3) == 0 { // anywhere: pieces overlap and descend
				off = rnd.Int63n(span)
			}
			e := interval.Extent{Off: off, Len: 1 + rnd.Int63n(60)}
			b.Ext = append(b.Ext, e)
			off = e.End() + rnd.Int63n(8)
		}
		if rnd.Intn(3) == 0 {
			for range b.Ext {
				b.Writers = append(b.Writers, rnd.Intn(p))
			}
		}
		at := clocks[rank][0].Now() + sim.VTime(rnd.Intn(3))*sim.Millisecond
		atomic, sync := rnd.Intn(4) == 0, rnd.Intn(3) == 0
		for i, fs := range fss {
			c := clients[rank][i]
			if err := fs.LogIntent("f", rank, b); err != nil {
				t.Fatal(err)
			}
			clocks[rank][i].AdvanceTo(at)
			if atomic {
				if err := c.WriteAtomic(b); err != nil {
					t.Fatal(err)
				}
			} else {
				c.Write(b)
			}
			if sync {
				batched = batched || cached && len(c.cache.dirty) > 1
				c.Sync()
			}
		}
	}
	recovered := crash && rnd.Intn(2) == 0
	for i, fs := range fss {
		for rank := range clients {
			batched = batched || cached && len(clients[rank][i].cache.dirty) > 1
			clients[rank][i].Close()
		}
		if recovered {
			if _, err := fs.Recover("f"); err != nil {
				t.Fatal(err)
			}
		}
	}
	name := fmt.Sprintf("seed %d (P=%d, %d servers, %v, cached %v, crash %v, recovered %v)",
		seed, p, servers, cfg.Mode, cached, crash, recovered)
	var owners [2]any
	var sizes [2]int64
	for i, fs := range fss {
		owners[i], _ = fs.Owners("f")
		sizes[i], _ = fs.FileSize("f")
	}
	if !reflect.DeepEqual(owners[0], owners[1]) || sizes[0] != sizes[1] {
		t.Fatalf("%s: owners differ:\nlog    %v (size %d)\noracle %v (size %d)", name, owners[0], sizes[0], owners[1], sizes[1])
	}
	for rank := range clocks {
		if clocks[rank][0].Now() != clocks[rank][1].Now() {
			t.Fatalf("%s: rank %d clocks diverged: %v log, %v oracle", name, rank, clocks[rank][0].Now(), clocks[rank][1].Now())
		}
	}
	return fmt.Sprintf("cached=%v/batched=%v/crash=%v", cached, batched, crash)
}

// TestAffinityOverwriteAcrossServers: in affinity mode two ranks on
// different servers write the same range, and the later write owns it
// although no server queue holds both.
func TestAffinityOverwriteAcrossServers(t *testing.T) {
	fsS, fsO := oraclePair(4, ClientAffinity)
	for i, fs := range []*FileSystem{fsS, fsO} {
		c0, _ := fs.Open("f", 0, sim.NewClock(0)) // server 0
		c1, _ := fs.Open("f", 1, sim.NewClock(0)) // server 1
		writeAt(c0, 10, 8)
		writeAt(c1, 12, 4)
		writeAt(c0, 14, 2)
		// [10,12) from c0's first write, [12,14) from c1, [14,16) from
		// c0's later write, [16,18) from c0's first write.
		const want = ".00110000."
		if got := image(t, fs, "f", 9, 10); got != want {
			t.Fatalf("oracle=%v: owners = %q, want %q", i == 1, got, want)
		}
	}
}

// TestStoredWriteAllocatesPerRecord pins the log's bookkeeping: a stored
// write keeps the call's lists as its record, uncopied, so a batch of 4096
// extents, spread over every server, allocates as many objects as a batch
// of 16, whether it names its writers or is the client's own — two more
// than the same write to a file system that stores nothing: the log and
// its record.
func TestStoredWriteAllocatesPerRecord(t *testing.T) {
	const runs = 300
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		// allocs is the mean number of objects a write allocates, over the
		// cleanest of several loops of runs. The race detector's runtime
		// adds a fraction of an object per run, which AllocsPerRun's
		// whole-object floor turns into one more in some measurements and
		// not in others; the unfloored mean does not. Allocations by other
		// goroutines only add to a loop's mean, so the least is the write's.
		allocs := func(extents int, named, store bool) float64 {
			b := Batch{Ext: make(interval.List, extents)}
			for i := range b.Ext {
				b.Ext[i] = interval.Extent{Off: int64(i) * 40, Len: 8}
			}
			if named {
				b.Writers = make([]int, extents)
			}
			write := func() {
				fs := MustNew(Config{Servers: 4, StripeSize: 16, Mode: mode, StoreData: store})
				c, _ := fs.Open("f", 1, sim.NewClock(0))
				c.Write(b)
			}
			write()
			least := math.Inf(1)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					write()
				}
				runtime.ReadMemStats(&after)
				least = min(least, float64(after.Mallocs-before.Mallocs)/runs)
			}
			return least
		}
		// One object either way is slack for the race detector's runtime,
		// which allocates differently for large objects; a per-extent or
		// per-growth allocation would show as thousands or a dozen, a
		// copied list as one more object.
		for _, named := range []bool{false, true} {
			small, large, plain := allocs(16, named, true), allocs(4096, named, true), allocs(4096, named, false)
			if math.Abs(small-large) > 1 {
				t.Errorf("%s: a stored write of 16 extents (writers named: %v) allocates %v objects, of 4096 extents %v", mode, named, small, large)
			}
			if large-plain >= 2.5 {
				t.Errorf("%s: a write (writers named: %v) allocates %v objects stored, %v unstored", mode, named, large, plain)
			}
		}
	}
}
