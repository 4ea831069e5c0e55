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

// TestWritersCompleteInOneOrder pins what one write log per file rests on:
// random single-call writers, each starting at its own virtual time,
// complete in the order they booked the servers on every server they
// share — so any two complete in the same order wherever both are served —
// and the owners are their writes applied in that order.
func TestWritersCompleteInOneOrder(t *testing.T) {
	const span = 600
	for seed := range int64(40) {
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

			// A call books all its servers at one instant; the coordinator
			// admits equal instants in rank order.
			booked := make([]sim.VTime, p)
			type completion struct {
				rank int
				at   sim.VTime
			}
			done := make([][]completion, servers) // per server
			for _, e := range rec.Events() {
				if e.Kind == obs.KindServe { // from the booking to the completion
					booked[e.Actor] = e.T
					done[e.Peer] = append(done[e.Peer], completion{e.Actor, e.T + e.Dur})
				}
			}
			order := make([]int, p)
			for rank := range order {
				order[rank] = rank
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(booked[a], booked[b]) })
			pos := make([]int, p) // each rank's place in booking order
			for i, rank := range order {
				pos[rank] = i
			}
			for s, cs := range done {
				slices.SortFunc(cs, func(a, b completion) int { return cmp.Compare(a.at, b.at) })
				for i := 1; i < len(cs); i++ {
					if a, b := cs[i-1], cs[i]; a.at == b.at || pos[a.rank] > pos[b.rank] {
						t.Fatalf("server %d completes rank %d at %v and rank %d at %v, booked in order %v", s, a.rank, a.at, b.rank, b.at, order)
					}
				}
			}
			want := bytes.Repeat([]byte{'.'}, 2*span)
			for _, rank := range order {
				for _, e := range batches[rank].Ext {
					for o := e.Off; o < e.End(); o++ {
						want[o] = byte('0' + rank)
					}
				}
			}
			if got := image(t, fs, "f", 0, int64(len(want))); got != string(want) {
				t.Fatalf("owners differ from the writes applied in booking order:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}
