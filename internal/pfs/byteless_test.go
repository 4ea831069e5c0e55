package pfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// TestBytelessRecordsMatchStoredRecords is the differential oracle for
// records without bytes: random batches from several ranks at random
// virtual times — vectored writes and atomic listio, straight to the servers
// and through write-behind logs whose pieces overlap, a third of them naming
// other ranks in Writers as an aggregator's do — in both stripe modes, with
// a server crash dropping the pieces routed to it and the write-ahead log
// replayed over the damage, are stored twice: once with their bytes and
// once without. Both file systems must agree on who wrote each byte, on the
// written extents, the file size and every clock, and the byte-less one
// must hold no byte.
func TestBytelessRecordsMatchStoredRecords(t *testing.T) {
	const span = 500
	cases := map[string]int{}
	for seed := range int64(300) {
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
			cfg.Cache = CacheConfig{Enabled: true, BlockSize: 32, WriteBehind: true}
		}
		crash := rnd.Intn(2) == 0
		var script fault.Script
		if crash {
			from := sim.VTime(rnd.Intn(3)) * sim.Millisecond
			script.Events = []fault.Event{{Kind: fault.ServerCrash, Server: rnd.Intn(servers), From: from, Until: from + sim.Millisecond}}
		}
		fss := [2]*FileSystem{MustNew(cfg), MustNew(cfg)} // with bytes, without
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
				data := make([]byte, e.Len)
				rnd.Read(data)
				b.Ext, b.Data = append(b.Ext, e), append(b.Data, data)
				off = e.End() + rnd.Int63n(8)
			}
			if rnd.Intn(3) == 0 {
				for range b.Ext {
					b.Writers = append(b.Writers, rnd.Intn(p))
				}
			}
			bare := Batch{Ext: b.Ext, Writers: b.Writers}
			at := clocks[rank][0].Now() + sim.VTime(rnd.Intn(3))*sim.Millisecond
			atomic, sync := rnd.Intn(4) == 0, rnd.Intn(3) == 0
			for i, batch := range [2]Batch{b, bare} {
				c := clients[rank][i]
				if err := fss[i].LogIntent("f", rank, batch); err != nil {
					t.Fatal(err)
				}
				clocks[rank][i].AdvanceTo(at)
				if atomic {
					if err := c.WriteAtomic(batch); err != nil {
						t.Fatal(err)
					}
				} else {
					c.Write(batch)
				}
				if sync {
					c.Sync()
				}
			}
		}
		recovered := crash && rnd.Intn(2) == 0
		for i, fs := range fss {
			for rank := range clients {
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
		var owners, extents [2]any
		var sizes [2]int64
		for i, fs := range fss {
			owners[i], _ = fs.Owners("f")
			extents[i], _ = fs.WrittenExtents("f")
			sizes[i], _ = fs.FileSize("f")
		}
		if !reflect.DeepEqual(owners[0], owners[1]) {
			t.Fatalf("%s: owners differ:\nwith bytes %#v\nwithout    %#v", name, owners[0], owners[1])
		}
		if !reflect.DeepEqual(extents[0], extents[1]) || sizes[0] != sizes[1] {
			t.Fatalf("%s: written %v (size %d) with bytes, %v (size %d) without", name, extents[0], sizes[0], extents[1], sizes[1])
		}
		for rank := range clocks {
			if clocks[rank][0].Now() != clocks[rank][1].Now() {
				t.Fatalf("%s: rank %d clocks diverged: %v with bytes, %v without", name, rank, clocks[rank][0].Now(), clocks[rank][1].Now())
			}
		}
		for server, recs := range fss[1].files["f"].content.(*stripedStore).servers {
			for _, r := range recs {
				if r.at != nil || r.data.Len() > 0 {
					t.Fatalf("%s: server %d holds %d bytes of a byte-less write", name, server, r.data.Len())
				}
			}
		}
		cases[fmt.Sprintf("cached=%v/crash=%v", cached, crash)]++
	}
	for _, c := range []string{"cached=false/crash=false", "cached=true/crash=false", "cached=false/crash=true", "cached=true/crash=true"} {
		if cases[c] == 0 {
			t.Errorf("no run was %s (%v): the comparison misses a case", c, cases)
		}
	}
}
