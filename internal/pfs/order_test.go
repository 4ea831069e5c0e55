package pfs

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// TestOwnerFollowsTheServer: on one server, rank 0 reaches the store first
// with a large write and rank 1 second with a small one that books the
// server earlier. The server completes rank 1's write first, so [0,16)
// holds rank 0's data last.
func TestOwnerFollowsTheServer(t *testing.T) {
	fs := basicFS(1)
	done := make([]sim.VTime, 2)
	onEngine(t, fs, 2, func(rank int) {
		clk := sim.NewClock(0)
		c, _ := fs.Open("f", rank, clk)
		n := int64(4096)
		if rank == 1 {
			fs.coord.Await(rank, sim.Microsecond) // rank 0 runs to its booking first
			n = 16
		}
		writeAt(c, 0, n)
		done[rank] = clk.Now()
	})
	if done[1] >= done[0] {
		t.Fatalf("rank 1 finished at %v, rank 0 at %v: the write that books first must finish first", done[1], done[0])
	}
	if got, want := image(t, fs, "f", 0, 20), "00000000000000000000"; got != want {
		t.Fatalf("owners = %q, want %q: the write the server completes last owns the overlap", got, want)
	}
}

// TestWritersCompleteInOneOrder: with no skew, as in production, a call
// reaches all its servers at one instant, so random single-call writers
// complete in one order, (send instant, rank), on every server they share,
// and the owners are their writes applied in that order.
func TestWritersCompleteInOneOrder(t *testing.T) { writersCompleteInArrivalOrder(t, 0, false) }

// TestWritersCompleteInArrivalOrderOnEachServer pins what one write log per
// file rests on: random single-call writers, each starting at its own
// virtual time and reaching each server after its own random offset
// (FileSystem.skew), complete on every server in the order their pieces
// arrive there, equal arrivals in rank order; and each byte is owned by the
// writer whose piece its server completes last.
func TestWritersCompleteInArrivalOrderOnEachServer(t *testing.T) {
	writersCompleteInArrivalOrder(t, 40, true)
}

// writersCompleteInArrivalOrder runs 40 random seeds from first, with
// random per-(rank, server) arrival offsets if skewed, and checks each
// server's completion order and the owners against (arrival, rank) order.
func writersCompleteInArrivalOrder(t *testing.T, first int64, skewed bool) {
	const span = 600
	for seed := first; seed < first+40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		p, servers := 2+rnd.Intn(7), 2+rnd.Intn(4)
		mode := StripeMode(rnd.Intn(2))
		t.Run(fmt.Sprintf("seed%d/P%d/S%d/%s", seed, p, servers, mode), func(t *testing.T) {
			fs := MustNew(Config{
				Servers: servers, StripeSize: 1 + rnd.Int63n(64), Mode: mode,
				ServerModel: sim.LinearCost{Latency: sim.Microsecond, BytesPerSec: 1 << 20},
				ClientModel: sim.LinearCost{Latency: sim.Microsecond, BytesPerSec: 8 << 20},
				SegOverhead: sim.Microsecond,
				StoreData:   true,
			})
			skew := make([][]sim.VTime, p) // zero unless skewed
			for rank := range skew {
				skew[rank] = make([]sim.VTime, servers)
				for server := range skew[rank] {
					if skewed {
						skew[rank][server] = sim.VTime(rnd.Intn(100)) * sim.Microsecond
					}
				}
			}
			if skewed {
				fs.skew = func(rank, server int) sim.VTime { return skew[rank][server] }
			}
			rec := obs.NewRecorder(p, 0)
			fs.SetObs(rec)
			starts := make([]sim.VTime, p)
			batches := make([]Batch, p)
			for rank := range batches {
				starts[rank] = sim.VTime(rnd.Intn(200)) * sim.Microsecond
				off := rnd.Int63n(span)
				for range 1 + rnd.Intn(4) {
					e := interval.Extent{Off: off, Len: 1 + rnd.Int63n(120)}
					batches[rank].Ext = append(batches[rank].Ext, e)
					off = e.End() + rnd.Int63n(40)
				}
			}
			onEngine(t, fs, p, func(rank int) {
				c, _ := fs.Open("f", rank, sim.NewClock(starts[rank]))
				c.Write(batches[rank])
			})

			// Each serve span runs from the piece's arrival to its
			// completion; a rank's arrivals differ by their offsets.
			type piece struct {
				rank          int
				arrival, done sim.VTime
			}
			served := make([][]piece, servers)
			arrival := make([][]sim.VTime, p) // per rank and server; -1 where none
			for rank := range arrival {
				arrival[rank] = slices.Repeat([]sim.VTime{-1}, servers)
			}
			for _, e := range rec.Events() {
				if e.Kind == obs.KindServe {
					served[e.Peer] = append(served[e.Peer], piece{e.Actor, e.T, e.T + e.Dur})
					arrival[e.Actor][e.Peer] = e.T
				}
			}
			sent := make([]sim.VTime, p) // the instant each rank sent its call
			for rank, as := range arrival {
				for server, a := range as {
					if a >= 0 {
						sent[rank] = a - skew[rank][server]
					}
				}
				for server, a := range as {
					if a >= 0 && a != sent[rank]+skew[rank][server] {
						t.Fatalf("rank %d reaches server %d at %v, want %v", rank, server, a, sent[rank]+skew[rank][server])
					}
				}
			}
			before := func(a, b piece) int { return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.rank, b.rank)) }
			for s, ps := range served {
				slices.SortFunc(ps, func(a, b piece) int { return cmp.Compare(a.done, b.done) })
				for i := 1; i < len(ps); i++ {
					if a, b := ps[i-1], ps[i]; a.done == b.done || before(a, b) > 0 {
						t.Fatalf("server %d completes rank %d (arrived %v) at %v and rank %d (arrived %v) at %v", s, a.rank, a.arrival, a.done, b.rank, b.arrival, b.done)
					}
				}
			}
			want := bytes.Repeat([]byte{'.'}, 2*span)
			last := make([]piece, len(want)) // the latest piece on each byte's server
			for rank, b := range batches {
				for _, e := range b.Ext {
					for o := e.Off; o < e.End(); o++ {
						pc := piece{rank: rank, arrival: arrival[rank][homeOf(&fs.cfg, o, rank)]}
						if want[o] == '.' || before(last[o], pc) < 0 {
							want[o], last[o] = byte('0'+rank), pc
						}
					}
				}
			}
			if got := image(t, fs, "f", 0, int64(len(want))); got != string(want) {
				t.Fatalf("owners differ from each server's writes applied in arrival order:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// homeOf is the server that holds byte off of rank's writes, by each mode's
// definition.
func homeOf(cfg *Config, off int64, rank int) int {
	switch {
	case cfg.Mode == ClientAffinity && len(cfg.Affinity) > 0:
		return cfg.Affinity[rank%len(cfg.Affinity)]
	case cfg.Mode == ClientAffinity:
		return rank % cfg.Servers
	}
	return int(off / cfg.StripeSize % int64(cfg.Servers))
}
