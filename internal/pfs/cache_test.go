package pfs

import (
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func cachingFS() *FileSystem {
	return MustNew(Config{
		Servers:     2,
		StripeSize:  64,
		ServerModel: sim.LinearCost{Latency: 100 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 8 << 20},
		SegOverhead: sim.Microsecond,
		StoreData:   true,
		Cache: CacheConfig{
			WriteBehind: true,
			MemModel:    sim.LinearCost{Latency: 100, BytesPerSec: 1 << 30},
		},
	})
}

func TestWriteBehindDefersServerTraffic(t *testing.T) {
	fs := cachingFS()
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 8)
	if got := c.DirtyBytes(); got != 8 {
		t.Fatalf("dirty = %d", got)
	}
	ops, _ := fs.Servers().Member(0).Stats()
	if ops != 0 {
		t.Fatal("write-behind write reached servers before sync")
	}
	if got := image(t, fs, "f", 0, 8); got != "........" {
		t.Fatalf("before sync owners = %q: the write reached the file early", got)
	}
	c.Sync()
	if c.DirtyBytes() != 0 {
		t.Fatal("sync left dirty bytes")
	}
	if got := image(t, fs, "f", 0, 8); got != "00000000" {
		t.Fatalf("after sync owners = %q", got)
	}
}

func TestWriteBehindCoalescesAdjacentWrites(t *testing.T) {
	fs := cachingFS()
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	// 16 adjacent 4-byte writes become one 64-byte flush: one server op.
	for i := 0; i < 16; i++ {
		writeAs(c, int64(4*i), 4, i%10)
	}
	c.Sync()
	ops0, _ := fs.Servers().Member(0).Stats()
	ops1, _ := fs.Servers().Member(1).Stats()
	if reqs := fs.ServerStats()[0].Requests; ops0+ops1 != 1 || reqs != 1 {
		t.Fatalf("flush produced %d server ops carrying %d requests, want 1 and 1", ops0+ops1, reqs)
	}
	if got := image(t, fs, "f", 52, 12); got != "333344445555" {
		t.Fatalf("coalesced owners wrong: %q", got)
	}
}

func TestWriteBehindLaterWriteWinsOnOverlap(t *testing.T) {
	fs := cachingFS()
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 8)
	writeAs(c, 2, 2, 7)
	c.Sync()
	if got := image(t, fs, "f", 0, 8); got != "00770000" {
		t.Fatalf("overlap resolution = %q", got)
	}
}

func TestCloseFlushes(t *testing.T) {
	fs := cachingFS()
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := image(t, fs, "f", 0, 3); got != "000" {
		t.Fatalf("close did not flush: %q", got)
	}
}

func TestWriteBehindWithoutStoreData(t *testing.T) {
	cfg := cachingFS().Config()
	cfg.StoreData = false
	fs := MustNew(cfg)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	writeAt(c, 0, 128)
	before := clk.Now()
	c.Sync()
	if clk.Now() <= before {
		t.Fatal("dataless sync charged no time")
	}
	if n := bookedBytes(fs); n != 128 {
		t.Fatalf("servers booked %d bytes", n)
	}
}

// TestWriteBehindAbsorbIsPerCall pins what a write-behind Write costs the
// host: one log entry per call, whatever its extents. A fresh client's
// first Write allocates nothing, of one extent or of 4096 lying blocks
// apart (the rows of a column-wise view): the log's first batch sits in
// the cache itself.
func TestWriteBehindAbsorbIsPerCall(t *testing.T) {
	fs := cachingFS()
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	one := Batch{Ext: interval.List{{Off: 0, Len: 16}}}
	rows := Batch{Ext: make(interval.List, 4096)}
	for i := range rows.Ext {
		rows.Ext[i] = interval.Extent{Off: int64(i) << 18, Len: 16}
	}
	firstWrite := func(b Batch) float64 {
		return testing.AllocsPerRun(50, func() {
			c.cache = cache{} // a fresh client's empty log, in place
			c.Write(b)
		})
	}
	small, large := firstWrite(one), firstWrite(rows)
	if small > 0 || large > 0 {
		t.Fatalf("a first Write of 1 extent allocated %v objects, of %d extents %v; want none",
			small, len(rows.Ext), large)
	}
}
