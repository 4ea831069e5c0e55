package pfs

import (
	"math/rand"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func cachingFS(readAhead int) *FileSystem {
	return MustNew(Config{
		Servers:     2,
		StripeSize:  64,
		ServerModel: sim.LinearCost{Latency: 100 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 8 << 20},
		SegOverhead: sim.Microsecond,
		StoreData:   true,
		Cache: CacheConfig{
			Enabled:         true,
			BlockSize:       64,
			ReadAheadBlocks: readAhead,
			WriteBehind:     true,
			MemModel:        sim.LinearCost{Latency: 100, BytesPerSec: 1 << 30},
		},
	})
}

func TestWriteBehindDefersServerTraffic(t *testing.T) {
	fs := cachingFS(0)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 8)
	if got := c.DirtyBytes(); got != 8 {
		t.Fatalf("dirty = %d", got)
	}
	ops, _ := fs.Servers().Member(0).Stats()
	if ops != 0 {
		t.Fatal("write-behind write reached servers before sync")
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
	fs := cachingFS(0)
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
	fs := cachingFS(0)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 8)
	writeAs(c, 2, 2, 7)
	c.Sync()
	if got := image(t, fs, "f", 0, 8); got != "00770000" {
		t.Fatalf("overlap resolution = %q", got)
	}
}

func TestCloseFlushes(t *testing.T) {
	fs := cachingFS(0)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := image(t, fs, "f", 0, 3); got != "000" {
		t.Fatalf("close did not flush: %q", got)
	}
}

func TestReadAheadPrefetches(t *testing.T) {
	fs := cachingFS(4)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	writeAt(c, 0, 5*64)
	c.Sync()
	c.Invalidate()

	c.ReadAt(0, 8) // miss: fetches block 0 + 4 read-ahead blocks
	t1 := clk.Now()
	c.ReadAt(64, 8) // hit thanks to read-ahead
	t2 := clk.Now()
	c.ReadAt(2*64, 8) // hit
	t3 := clk.Now()

	missCost := t1
	hitCost := t2 - t1
	if hitCost >= missCost/10 {
		t.Fatalf("read-ahead hit (%v) not much cheaper than miss (%v)", hitCost, missCost)
	}
	if t3-t2 != hitCost {
		t.Fatalf("second hit cost %v != first hit cost %v", t3-t2, hitCost)
	}
}

func TestInvalidateForcesRefetch(t *testing.T) {
	fs := cachingFS(0)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	writeAt(c, 0, 64)
	c.Sync()

	c.ReadAt(0, 8)
	t1 := clk.Now()
	c.ReadAt(0, 8) // cached (the write validated the block)
	hit := clk.Now() - t1
	c.Invalidate()
	t2 := clk.Now()
	c.ReadAt(0, 8) // must refetch
	miss := clk.Now() - t2
	if miss <= hit {
		t.Fatalf("post-invalidate read (%v) should cost more than a hit (%v)", miss, hit)
	}
}

func TestInvalidatePreservesDirtyData(t *testing.T) {
	fs := cachingFS(0)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 4)
	c.Invalidate()
	if c.DirtyBytes() != 4 {
		t.Fatal("invalidate dropped dirty data")
	}
	c.Sync()
	if got := image(t, fs, "f", 0, 4); got != "0000" {
		t.Fatalf("data lost: %q", got)
	}
}

func TestWriteBehindWithoutStoreData(t *testing.T) {
	cfg := cachingFS(0).Config()
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
	size, _ := fs.FileSize("f")
	if size != 128 {
		t.Fatalf("size = %d", size)
	}
}

func TestCacheBlockSizeDefault(t *testing.T) {
	if (CacheConfig{}).blockSize() != 64<<10 {
		t.Fatal("default block size wrong")
	}
}

// TestWriteBehindClientReadsItsOwnWrites pins what a write-behind client's
// read of its own unflushed write costs: the blocks the write touched are
// readable, so the read is served at memory cost with no server request,
// while the file still holds the other client's data until the Sync.
func TestWriteBehindClientReadsItsOwnWrites(t *testing.T) {
	fs := cachingFS(0)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	other, _ := fs.Open("f", 1, sim.NewClock(0))
	writeAt(other, 0, 16)
	other.Sync()

	writeAt(c, 4, 4)
	requests := fs.ServerStats()[0].Requests
	before := clk.Now()
	c.ReadAt(0, 16)
	if got, want := clk.Now()-before, fs.Config().Cache.MemModel.Cost(16); got != want {
		t.Fatalf("read of an own unflushed block cost %v, want the memory cost %v", got, want)
	}
	if got := fs.ServerStats()[0].Requests; got != requests {
		t.Fatalf("read of an own unflushed block booked %d server requests", got-requests)
	}
	if got := image(t, fs, "f", 0, 16); got != "1111111111111111" {
		t.Fatalf("owners before the Sync = %q: the write reached the file early", got)
	}
	c.Sync()
	if got := image(t, fs, "f", 0, 16); got != "1111000011111111" {
		t.Fatalf("owners after the Sync = %q", got)
	}
}

// TestValidRunsMatchBlockSet drives random write / read / invalidate scripts
// through a caching client and through the per-block set its run list
// replaced. After every step the readable blocks must be the set's, and
// every read must take the misses the set predicts: as many fetches, of the
// same sizes, at the same virtual cost. One server and one stripe, so a
// fetch is one request and the clock can be worked out by hand.
func TestValidRunsMatchBlockSet(t *testing.T) {
	const (
		bs        = 64
		blocks    = 120
		readAhead = 2
	)
	cfg := Config{
		Servers:     1,
		StripeSize:  1 << 30,
		ServerModel: sim.LinearCost{Latency: 100 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 8 << 20},
		Cache: CacheConfig{
			Enabled:         true,
			BlockSize:       bs,
			ReadAheadBlocks: readAhead,
			WriteBehind:     true,
			MemModel:        sim.LinearCost{Latency: 100, BytesPerSec: 1 << 30},
		},
	}
	for seed := int64(1); seed <= 10; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		fs := MustNew(cfg)
		clk := sim.NewClock(0)
		c, _ := fs.Open("f", 0, clk)
		set := make(map[int64]bool)
		now := clk.Now()
		var fetches, fetched int64
		for op := 0; op < 300; op++ {
			switch k := rnd.Intn(10); {
			case k < 5:
				// A vectored write, in file order more often than not; some
				// segments span blocks, some touch the next, some are empty.
				exts := make(interval.List, 1+rnd.Intn(6))
				ascending := rnd.Intn(3) > 0
				off := int64(rnd.Intn(blocks * bs / 2))
				var total int64
				for i := range exts {
					if !ascending {
						off = int64(rnd.Intn(blocks * bs))
					}
					e := interval.Extent{Off: off, Len: int64(rnd.Intn(3 * bs))}
					exts[i] = e
					off += e.Len + int64(rnd.Intn(4))*int64(rnd.Intn(2*bs))
					total += e.Len
					for b := e.Off / bs; e.Len > 0 && b <= (e.End()-1)/bs; b++ {
						set[b] = true
					}
				}
				c.Write(Batch{Ext: exts})
				now += cfg.Cache.MemModel.Cost(total)
			case k < 9:
				off, n := int64(rnd.Intn(blocks*bs)), 1+int64(rnd.Intn(6*bs))
				for b, last := off/bs, (off+n-1)/bs; b <= last; b++ {
					if set[b] {
						continue
					}
					runEnd := b
					for runEnd+1 <= last && !set[runEnd+1] {
						runEnd++
					}
					fetch := runEnd - b + 1 + readAhead
					fetches++
					fetched += fetch * bs
					now += cfg.ServerModel.Cost(fetch*bs) + cfg.ClientModel.Cost(fetch*bs)
					for v := b; v < b+fetch; v++ {
						set[v] = true
					}
					b = runEnd
				}
				now += cfg.Cache.MemModel.Cost(n)
				c.ReadAt(off, n)
			default:
				c.Invalidate()
				clear(set)
			}
			if clk.Now() != now {
				t.Fatalf("seed %d op %d: clock %v, the block set predicts %v", seed, op, clk.Now(), now)
			}
			if st := fs.ServerStats()[0]; st.Requests != fetches || st.Bytes != fetched {
				t.Fatalf("seed %d op %d: %d fetches of %d bytes in all, the block set predicts %d of %d",
					seed, op, st.Requests, st.Bytes, fetches, fetched)
			}
			for b := int64(0); b < 2*blocks; b++ {
				if got := c.cache.valid.ContainsOffset(b); got != set[b] {
					t.Fatalf("seed %d op %d: block %d readable = %v, the block set says %v (runs %v)",
						seed, op, b, got, set[b], c.cache.valid)
				}
			}
		}
	}
}
