package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/pfs"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// TestQuickCheckMatchesCheckBytes is the differential oracle for verifying
// by writer: on random stored runs — up to eight ranks writing
// Fill-stamped batches at random virtual times, in both stripe modes on one
// to four servers, with a server crash dropping the pieces routed to it and
// the write-ahead log replayed over the damage — Check, which reads who
// wrote each byte from the store's records, must report exactly what
// CheckBytes reads from the snapshot's marker bytes: the same atoms,
// violations, winners and order violation.
func TestQuickCheckMatchesCheckBytes(t *testing.T) {
	const span = 600
	verdicts := map[string]int{}
	for seed := range int64(300) {
		rnd := rand.New(rand.NewSource(seed))
		p, servers := 2+rnd.Intn(7), 1+rnd.Intn(4)
		fs := pfs.MustNew(pfs.Config{
			Servers: servers, StripeSize: 1 + rnd.Int63n(64), Mode: pfs.StripeMode(rnd.Intn(2)),
			StoreData: true, WAL: true,
		})
		crash := rnd.Intn(2) == 0
		if crash {
			from := sim.VTime(rnd.Intn(4)) * sim.Second
			fs.SetFault(fault.New(fault.Script{Events: []fault.Event{
				{Kind: fault.ServerCrash, Server: rnd.Intn(servers), From: from, Until: from + sim.Second},
			}}))
		}
		clients := make([]*pfs.Client, p)
		clocks := make([]*sim.Clock, p)
		for rank := range clients {
			clocks[rank] = sim.NewClock(0)
			clients[rank], _ = fs.Open("f", rank, clocks[rank])
		}
		views := make([]interval.List, p)
		for range 2 * p {
			rank := rnd.Intn(p)
			b := pfs.Batch{}
			for range 1 + rnd.Intn(5) {
				e := interval.Extent{Off: rnd.Int63n(span), Len: 1 + rnd.Int63n(80)}
				data := make([]byte, e.Len)
				Fill(rank, data)
				b.Ext, b.Data = append(b.Ext, e), append(b.Data, data)
			}
			views[rank] = append(views[rank], b.Ext...)
			if err := fs.LogIntent("f", rank, b); err != nil {
				t.Fatal(err)
			}
			clocks[rank].AdvanceTo(sim.VTime(rnd.Intn(6)) * sim.Second)
			clients[rank].Write(b)
		}
		recovered := crash && rnd.Intn(2) == 0
		if recovered {
			if _, err := fs.Recover("f"); err != nil {
				t.Fatal(err)
			}
		}
		for rank := range views {
			views[rank] = views[rank].Normalize()
		}
		size, _ := fs.FileSize("f")
		image, err := fs.Snapshot("f", interval.Extent{Off: 0, Len: size})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Check(fs, "f", views)
		if err != nil {
			t.Fatal(err)
		}
		if want := CheckBytes(image, views); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (P=%d, %d servers, crash %v, recovered %v):\nrecords %+v\nbytes   %+v",
				seed, p, servers, crash, recovered, got, want)
		}
		verdicts[fmt.Sprintf("atomic=%v/recovered=%v", got.Atomic(), recovered)]++
	}
	for _, v := range []string{"atomic=true/recovered=false", "atomic=false/recovered=false", "atomic=true/recovered=true", "atomic=false/recovered=true"} {
		if verdicts[v] == 0 {
			t.Errorf("no run was %s (%v): the comparison misses a case", v, verdicts)
		}
	}
}

// TestTornPastMarkerWrap: ranks 0 and 255 stamp the same marker byte, so
// the bytes cannot show that they tore their overlap; the writers the store
// keeps can.
func TestTornPastMarkerWrap(t *testing.T) {
	if Marker(0) != Marker(255) {
		t.Fatal("the test needs two ranks with one marker")
	}
	fs := newFS()
	views := make([]interval.List, 256)
	views[0], views[255] = interval.List{ext(0, 100)}, interval.List{ext(0, 100)}
	write(t, fs, 0, ext(0, 100))
	write(t, fs, 255, ext(0, 50)) // rank 255 lands on half the overlap only
	image, _ := fs.Snapshot("f", ext(0, 100))
	if !CheckBytes(image, views).Atomic() {
		t.Fatal("the marker bytes were expected to hide the tear")
	}
	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atomic() || len(rep.Violations) != 1 || !reflect.DeepEqual(rep.Violations[0].Found, []int{0, 255}) {
		t.Fatalf("torn overlap of ranks 0 and 255: %+v", rep)
	}
}
