package pfs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// payloadless strips the bytes off a request, keeping offsets and lengths.
func payloadless(segs []Segment) []Segment {
	out := make([]Segment, len(segs))
	for i, s := range segs {
		out[i] = Segment{Off: s.Off, N: s.Len()}
	}
	return out
}

// shapes lists (offset, length) per segment — what is left to compare once
// the bytes are optional.
func shapes(segs []Segment) interval.List {
	out := make(interval.List, len(segs))
	for i, s := range segs {
		out[i] = interval.Extent{Off: s.Off, Len: s.Len()}
	}
	return out
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		p := recover()
		if p == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := p.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", p, want)
		}
	}()
	f()
}

// TestPayloadlessSegmentsChargeLikeData pins the Segment contract on a file
// system that stores nothing: a payload-less request and the Data-carrying
// request of the same shape cost the same virtual time and book the same
// server traffic — directly, and through a write-behind cache and its Sync.
func TestPayloadlessSegmentsChargeLikeData(t *testing.T) {
	direct := basicFS(2).Config()
	cached := cachingFS(0).Config()
	for name, cfg := range map[string]Config{"direct": direct, "write-behind": cached} {
		cfg.StoreData = false
		// Unaligned, stripe-crossing, adjacent (coalescing) and overlapping.
		withData := []Segment{
			{Off: 3, Data: make([]byte, 200)},
			{Off: 203, Data: make([]byte, 61)},
			{Off: 1000, Data: make([]byte, 64)},
			{Off: 1032, Data: make([]byte, 64)},
			{Off: 5000, Data: nil},
		}
		type outcome struct {
			afterWrite, afterSync sim.VTime
			dirty, written, size  int64
			stats                 []ServerStats
		}
		run := func(segs []Segment) outcome {
			fs := MustNew(cfg)
			clk := sim.NewClock(0)
			c, err := fs.Open("f", 1, clk)
			if err != nil {
				t.Fatal(err)
			}
			var o outcome
			c.WriteV(segs)
			o.afterWrite, o.dirty = clk.Now(), c.DirtyBytes()
			c.Sync()
			o.afterSync, o.written = clk.Now(), c.BytesWritten()
			o.size, _ = fs.FileSize("f")
			o.stats = fs.ServerStats()
			return o
		}
		want, got := run(withData), run(payloadless(withData))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: payload-less run = %+v, want %+v", name, got, want)
		}
		if want.afterSync == 0 || want.written != 389 {
			t.Errorf("%s: reference run charged %v for %d bytes", name, want.afterSync, want.written)
		}
	}
}

// TestDropFaultedSplitsPayloadless pins the fault filter on payload-less
// requests: stripe splitting surrenders the same damage extents and keeps
// survivors of the same offsets and lengths as for the Data-carrying
// request, in both striping modes.
func TestDropFaultedSplitsPayloadless(t *testing.T) {
	withData := []Segment{
		{Off: 5, Data: make([]byte, 30)}, // crosses four 8-byte stripes
		{Off: 40, Data: make([]byte, 8)}, // exactly one stripe
		{Off: 64, Data: []byte{}},
	}
	for _, mode := range []StripeMode{RoundRobin, ClientAffinity} {
		filter := func(segs []Segment) (survivors, damage interval.List) {
			fs := MustNew(Config{Servers: 2, StripeSize: 8, Mode: mode})
			fs.SetFault(fault.New(fault.ServerOutage()))
			c, err := fs.Open("f", 0, sim.NewClock(0))
			if err != nil {
				t.Fatal(err)
			}
			survivors = c.dropFaulted(batchOf(segs)).Ext
			damage, _ = fs.Damaged("f")
			return survivors, damage
		}
		wantKept, wantDamage := filter(withData)
		gotKept, gotDamage := filter(payloadless(withData))
		if !reflect.DeepEqual(gotKept, wantKept) {
			t.Errorf("%v: payload-less survivors = %v, want %v", mode, gotKept, wantKept)
		}
		if !reflect.DeepEqual(gotDamage, wantDamage) {
			t.Errorf("%v: payload-less damage = %v, want %v", mode, gotDamage, wantDamage)
		}
		if len(wantDamage) == 0 {
			t.Errorf("%v: the outage damaged nothing; the test compares nothing", mode)
		}
	}
}

// TestWALWithoutStoreDataLogsExtents pins the data-less write-ahead log:
// LogIntent keeps offsets and lengths and copies no bytes, whichever kind of
// segment it is handed, and Recover still names the ranks to replay.
func TestWALWithoutStoreDataLogsExtents(t *testing.T) {
	fs := MustNew(Config{Servers: 2, StripeSize: 8, WAL: true})
	fs.SetFault(fault.New(fault.Script{Events: []fault.Event{
		{Kind: fault.ServerCrash, Server: 0}, // stripes 0, 2, ... dropped
	}}))
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))
	seg0 := []Segment{{Off: 0, Data: make([]byte, 8)}} // stripe 0 → dropped
	seg1 := []Segment{{Off: 8, N: 8}}                  // stripe 1 → survives
	for rank, segs := range [][]Segment{seg0, seg1} {
		if err := fs.LogIntent("f", rank, batchOf(segs)); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := fs.lookup("f", false)
	for rank, want := range [][]Batch{{{Ext: interval.List{{Off: 0, Len: 8}}}}, {{Ext: interval.List{{Off: 8, Len: 8}}}}} {
		if got := f.intents[rank]; !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d intents = %+v, want %+v", rank, got, want)
		}
	}
	c0.WriteV(seg0)
	c1.WriteV(seg1)
	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed = %v, want %v", replayed, want)
	}
	if size, _ := fs.FileSize("f"); size != 16 {
		t.Errorf("size after replay = %d, want 16", size)
	}
}

// TestPayloadlessRefusedWhereBytesAreNeeded pins the other half of the
// contract: a storing file system keeps who wrote a payload-less segment —
// directly, through a write-behind log and through a write-ahead replay —
// but a read that needs its bytes panics and names the extent: Snapshot,
// ReadAt, and a cached ReadAt before and after the flush. Nothing ever
// reads invented zeros. Bytes of the wrong length are refused when written,
// never zero-filled or cut to fit.
func TestPayloadlessRefusedWhereBytesAreNeeded(t *testing.T) {
	segs := []Segment{{Off: 0, N: 16}}
	const unread = "[0,16), which was written without its bytes"
	kept := func(fs *FileSystem) {
		t.Helper()
		exts, _ := fs.WrittenExtents("f")
		owners, _ := fs.Owners("f")
		want := interval.Extent{Off: 0, Len: 16}
		if !exts.Equal(interval.List{want}) || !reflect.DeepEqual(owners, []index.Owned{{Extent: want}}) {
			t.Errorf("stored %v owned by %v, want [0,16) by rank 0", exts, owners)
		}
	}

	fs := basicFS(2)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.WriteV(segs)
	kept(fs)
	mustPanic(t, "read of [0,32) reaches "+unread, func() { fs.Snapshot("f", interval.Extent{Off: 0, Len: 32}) })
	mustPanic(t, "reaches [4,12), which was written without its bytes", func() { c.ReadAt(4, make([]byte, 8)) })
	if buf, _ := fs.Snapshot("f", interval.Extent{Off: 16, Len: 8}); !bytes.Equal(buf, make([]byte, 8)) {
		t.Errorf("bytes never written read %x", buf)
	}

	fs = cachingFS(0)
	c, _ = fs.Open("f", 0, sim.NewClock(0))
	c.WriteV(segs)
	mustPanic(t, unread, func() { c.ReadAt(0, make([]byte, 32)) }) // from the log
	c.Sync()
	kept(fs)
	mustPanic(t, unread, func() { c.ReadAt(0, make([]byte, 32)) }) // from the store

	fs = MustNew(Config{Servers: 2, StripeSize: 8, StoreData: true, WAL: true})
	fs.SetFault(fault.New(fault.ServerOutage()))
	c, _ = fs.Open("f", 0, sim.NewClock(0))
	if err := fs.LogIntent("f", 0, batchOf(segs)); err != nil {
		t.Fatal(err)
	}
	c.Damage(interval.List{{Off: 0, Len: 16}})
	if replayed, err := fs.Recover("f"); err != nil || !reflect.DeepEqual(replayed, []int{0}) {
		t.Fatalf("replayed %v, %v", replayed, err)
	}
	kept(fs)
	mustPanic(t, "read of [0,16) reaches [0,8), which", func() { fs.Snapshot("f", interval.Extent{Off: 0, Len: 16}) }) // stripe 0

	for _, n := range []int{8, 24} {
		short := Batch{Ext: interval.List{{Off: 0, Len: 16}}, Data: [][]byte{make([]byte, n)}}
		fs = basicFS(2)
		c, _ = fs.Open("f", 0, sim.NewClock(0))
		mustPanic(t, fmt.Sprintf("with %d bytes", n), func() { c.Write(short) })
		fs = cachingFS(0)
		c, _ = fs.Open("f", 0, sim.NewClock(0))
		mustPanic(t, fmt.Sprintf("with %d bytes", n), func() { c.Write(short) })
	}
}
