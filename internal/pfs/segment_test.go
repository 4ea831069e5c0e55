package pfs

import (
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// TestPayloadlessSegmentsChargeLikeData pins the Segment contract: WriteV
// reads each segment's length alone, so a request of segments costs the
// virtual time and books the server traffic of the batch of their extents —
// directly, and through a write-behind cache and its Sync, on a file system
// that stores nothing and on one that keeps who wrote each byte.
func TestPayloadlessSegmentsChargeLikeData(t *testing.T) {
	direct := basicFS(2).Config()
	cached := cachingFS().Config()
	// Unaligned, stripe-crossing, adjacent (coalescing) and overlapping.
	segs := []Segment{
		{Off: 3, Data: make([]byte, 200)},
		{Off: 203, Data: make([]byte, 61)},
		{Off: 1000, Data: make([]byte, 64)},
		{Off: 1032, Data: make([]byte, 64)},
		{Off: 5000, Data: nil},
	}
	exts := interval.List{{Off: 3, Len: 200}, {Off: 203, Len: 61}, {Off: 1000, Len: 64}, {Off: 1032, Len: 64}, {Off: 5000}}
	for name, cfg := range map[string]Config{"direct": direct, "write-behind": cached} {
		for _, store := range []bool{false, true} {
			cfg.StoreData = store
			type outcome struct {
				afterWrite, afterSync sim.VTime
				dirty, written, size  int64
				stats                 []ServerStats
				owners                any
			}
			run := func(write func(c *Client)) outcome {
				fs := MustNew(cfg)
				clk := sim.NewClock(0)
				c, err := fs.Open("f", 1, clk)
				if err != nil {
					t.Fatal(err)
				}
				var o outcome
				write(c)
				o.afterWrite, o.dirty = clk.Now(), c.DirtyBytes()
				c.Sync()
				o.afterSync, o.written = clk.Now(), c.BytesWritten()
				o.size, _ = fs.FileSize("f")
				o.stats = fs.ServerStats()
				o.owners, _ = fs.Owners("f")
				return o
			}
			want := run(func(c *Client) { c.Write(Batch{Ext: exts}) })
			got := run(func(c *Client) { c.WriteV(segs) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, store %v: segments = %+v, want %+v", name, store, got, want)
			}
			if want.afterSync == 0 || want.written != 389 {
				t.Errorf("%s, store %v: reference run charged %v for %d bytes", name, store, want.afterSync, want.written)
			}
		}
	}
}

// TestDropFaultedSplitsPayloadless pins the fault filter: stripe splitting
// surrenders exactly the pieces homed on the crashed server as damage, and
// keeps the others, each with its extent's writer, in both striping modes.
func TestDropFaultedSplitsPayloadless(t *testing.T) {
	b := Batch{
		Ext:     interval.List{{Off: 5, Len: 30}, {Off: 40, Len: 8}, {Off: 64}}, // four 8-byte stripes, one, none
		Writers: []int{3, 4, 5},
	}
	for _, tc := range []struct {
		mode         StripeMode
		kept, damage interval.List
		keptWriters  []int
		keptSecond   int // of b's second extent, alone in a logged batch
	}{
		// Server 0 homes the even stripes: [0,8), [16,24), [32,40).
		{RoundRobin, interval.List{{Off: 8, Len: 8}, {Off: 24, Len: 8}, {Off: 40, Len: 8}, {Off: 64}},
			interval.List{{Off: 5, Len: 3}, {Off: 16, Len: 8}, {Off: 32, Len: 3}}, []int{3, 3, 4, 5}, 1},
		// Rank 0's home server is down: every extent with bytes goes.
		{ClientAffinity, interval.List{{Off: 64}}, interval.List{{Off: 5, Len: 30}, {Off: 40, Len: 8}}, []int{5}, 0},
	} {
		fs := MustNew(Config{Servers: 2, StripeSize: 8, Mode: tc.mode})
		fs.SetFault(fault.New(fault.ServerOutage()))
		c, err := fs.Open("f", 0, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		got, log := c.dropFaulted(b, []Batch{b, b.Slice(1, 2)})
		damage, _ := fs.Damaged("f")
		if !reflect.DeepEqual(got.Ext, tc.kept) || !reflect.DeepEqual(got.Writers, tc.keptWriters) {
			t.Errorf("%v: kept %v by %v, want %v by %v", tc.mode, got.Ext, got.Writers, tc.kept, tc.keptWriters)
		}
		// A flush's logged batches lose the same pieces, and record no damage twice.
		if !reflect.DeepEqual(log[0], got) || len(log[1].Ext) != tc.keptSecond {
			t.Errorf("%v: logged batches kept %+v, want %+v and %d extents of the second", tc.mode, log, got, tc.keptSecond)
		}
		if !reflect.DeepEqual(damage, tc.damage) {
			t.Errorf("%v: damage = %v, want %v", tc.mode, damage, tc.damage)
		}
	}
}

// TestWALWithoutStoreDataLogsExtents pins the write-ahead log of a file
// system that stores nothing: LogIntent keeps offsets and lengths, and
// Recover still names the ranks to replay.
func TestWALWithoutStoreDataLogsExtents(t *testing.T) {
	fs := MustNew(Config{Servers: 2, StripeSize: 8, WAL: true})
	fs.SetFault(fault.New(fault.Script{Events: []fault.Event{
		{Kind: fault.ServerCrash, Server: 0}, // stripes 0, 2, ... dropped
	}}))
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))
	b0 := Batch{Ext: interval.List{{Off: 0, Len: 8}}} // stripe 0 → dropped
	b1 := Batch{Ext: interval.List{{Off: 8, Len: 8}}} // stripe 1 → survives
	for rank, b := range []Batch{b0, b1} {
		if err := fs.LogIntent("f", rank, b); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := fs.lookup("f", false)
	for rank, want := range [][]Batch{{{Ext: interval.List{{Off: 0, Len: 8}}}}, {{Ext: interval.List{{Off: 8, Len: 8}}}}} {
		if got := f.intents[rank]; !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d intents = %+v, want %+v", rank, got, want)
		}
	}
	c0.Write(b0)
	c1.Write(b1)
	booked := fs.ServerStats()
	if booked[0].Bytes != 0 || booked[1].Bytes != 8 {
		t.Fatalf("servers booked %+v, want only rank 1's 8 bytes on server 1", booked)
	}
	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed = %v, want %v", replayed, want)
	}
	// Replay writes into the store, which keeps nothing here: it books no
	// server.
	if got := fs.ServerStats(); !reflect.DeepEqual(got, booked) {
		t.Errorf("replay booked the servers: %+v, before %+v", got, booked)
	}
}
