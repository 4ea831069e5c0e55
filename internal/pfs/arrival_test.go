package pfs_test

import (
	"cmp"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/obs"
	"atomio/internal/pfs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/verify"
)

// TestOppositeArrivalsTearAnOverlappingWrite: two ranks write the same 32
// bytes, which span both servers, with no strategy and no faults, but each
// reaches the other rank's near server late. Each server takes the pieces
// in its own arrival order, the two orders are opposite, the owners follow
// each server, and the verifier sees the file torn.
func TestOppositeArrivalsTearAnOverlappingWrite(t *testing.T) {
	fs := pfs.MustNew(pfs.Config{
		Servers:     2,
		StripeSize:  16,
		ServerModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel: sim.LinearCost{Latency: 5 * sim.Microsecond, BytesPerSec: 8 << 20},
		StoreData:   true,
	})
	fs.SetSkew(func(rank, server int) sim.VTime {
		if rank != server {
			return 100 * sim.Microsecond
		}
		return 0
	})
	rec := obs.NewRecorder(2, 0)
	fs.SetObs(rec)
	eng := des.New()
	coord := eng.NewCoord(2)
	fs.SetCoord(coord)
	view := interval.List{{Off: 0, Len: 32}} // [0,16) on server 0, [16,32) on server 1
	err := eng.Run(coord, 2, func(rank int) {
		defer coord.Done(rank)
		c, _ := fs.Open("f", rank, sim.NewClock(0))
		c.Write(pfs.Batch{Ext: view})
	})
	if err != nil {
		t.Fatal(err)
	}

	var serves []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.KindServe {
			serves = append(serves, e)
		}
	}
	slices.SortFunc(serves, func(a, b obs.Event) int { return cmp.Compare(a.T+a.Dur, b.T+b.Dur) })
	done := make([][]int, 2) // each server's ranks in completion order
	for _, e := range serves {
		done[e.Peer] = append(done[e.Peer], e.Actor)
	}
	if want := [][]int{{0, 1}, {1, 0}}; !slices.EqualFunc(done, want, slices.Equal) {
		t.Fatalf("servers complete ranks in orders %v, want %v", done, want)
	}
	owners, err := fs.Owners("f")
	if err != nil {
		t.Fatal(err)
	}
	want := []index.Owned{{Extent: interval.Extent{Off: 0, Len: 16}, Rank: 1}, {Extent: interval.Extent{Off: 16, Len: 16}, Rank: 0}}
	if !slices.Equal(owners, want) {
		t.Fatalf("owners = %v, want %v: each server's bytes belong to the rank it completes last", owners, want)
	}
	rep, err := verify.Check(fs, "f", []interval.List{view, view})
	if err != nil {
		t.Fatal(err)
	}
	if got := verify.Classify(rep, false); got != verify.Torn {
		t.Fatalf("verdict = %s, want %s", got, verify.Torn)
	}
}
