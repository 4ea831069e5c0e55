package pfs

import (
	"bytes"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

func basicFS(servers int) *FileSystem {
	return MustNew(Config{
		Servers:     servers,
		StripeSize:  16,
		ServerModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20},
		ClientModel: sim.LinearCost{Latency: 5 * sim.Microsecond, BytesPerSec: 8 << 20},
		SegOverhead: sim.Microsecond,
		StoreData:   true,
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := basicFS(2)
	clk := sim.NewClock(0)
	c, err := fs.Open("f", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	c.WriteAt(10, []byte("hello world"))
	buf := make([]byte, 11)
	c.ReadAt(10, buf)
	if string(buf) != "hello world" {
		t.Fatalf("read back %q", buf)
	}
	if c.BytesWritten() != 11 || c.BytesRead() != 11 {
		t.Fatalf("counters = %d/%d", c.BytesWritten(), c.BytesRead())
	}
	if clk.Now() == 0 {
		t.Fatal("I/O charged no virtual time")
	}
}

func TestUnwrittenBytesReadZero(t *testing.T) {
	fs := basicFS(1)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.WriteAt(100, []byte{1, 2, 3})
	buf := make([]byte, 6)
	c.ReadAt(98, buf)
	want := []byte{0, 0, 1, 2, 3, 0}
	if !bytes.Equal(buf, want) {
		t.Fatalf("read = %v, want %v", buf, want)
	}
}

// TestWriteCrossesStripeBoundary writes one extent over four stripes of
// three servers and reads it back whole and from inside: each server keeps
// its pieces, and a read puts them back in place.
func TestWriteCrossesStripeBoundary(t *testing.T) {
	fs := basicFS(3)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	data := make([]byte, 3*16+10)
	for i := range data {
		data[i] = byte(i + 1)
	}
	c.WriteAt(16-5, data)
	buf := make([]byte, len(data))
	c.ReadAt(16-5, buf)
	if !bytes.Equal(buf, data) {
		t.Fatalf("cross-stripe write read back as %v", buf)
	}
	c.ReadAt(20, buf[:20])
	if !bytes.Equal(buf[:20], data[9:29]) {
		t.Fatalf("read from inside = %v, want %v", buf[:20], data[9:29])
	}
}

func TestSnapshotAndFileSize(t *testing.T) {
	fs := basicFS(1)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.WriteAt(0, []byte("abcdef"))
	snap, err := fs.Snapshot("f", ext(2, 3))
	if err != nil || string(snap) != "cde" {
		t.Fatalf("snapshot = %q, %v", snap, err)
	}
	size, err := fs.FileSize("f")
	if err != nil || size != 6 {
		t.Fatalf("size = %d, %v", size, err)
	}
	if _, err := fs.Snapshot("missing", ext(0, 1)); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestWriteVSegmentsLandSeparately(t *testing.T) {
	fs := basicFS(4)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.WriteV([]Segment{
		{Off: 0, Data: []byte("AA")},
		{Off: 10, Data: []byte("BB")},
		{Off: 20, Data: []byte("CC")},
	})
	snap, _ := fs.Snapshot("f", ext(0, 22))
	if string(snap[0:2]) != "AA" || string(snap[10:12]) != "BB" || string(snap[20:22]) != "CC" {
		t.Fatalf("snapshot = %q", snap)
	}
	if snap[5] != 0 {
		t.Fatal("hole written")
	}
}

func TestStripingSpreadsLoad(t *testing.T) {
	// 4 servers, stripe 16: a 64-byte write at 0 touches all 4 equally.
	fs := basicFS(4)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.WriteAt(0, make([]byte, 64))
	for i := 0; i < 4; i++ {
		ops, busy := fs.Servers().Member(i).Stats()
		if ops != 1 || busy == 0 {
			t.Fatalf("server %d: ops=%d busy=%v", i, ops, busy)
		}
	}
}

func TestClientAffinityUsesOneServer(t *testing.T) {
	cfg := basicFS(4).Config()
	cfg.Mode = ClientAffinity
	fs := MustNew(cfg)
	c, _ := fs.Open("f", 2, sim.NewClock(0)) // rank 2 -> server 2
	c.WriteAt(0, make([]byte, 64))
	for i := 0; i < 4; i++ {
		ops, _ := fs.Servers().Member(i).Stats()
		want := int64(0)
		if i == 2 {
			want = 1
		}
		if ops != want {
			t.Fatalf("server %d ops = %d, want %d", i, ops, want)
		}
	}
}

func TestServerContentionSerializes(t *testing.T) {
	// Two clients writing the same amount to a 1-server FS must drain in
	// the sum of their service times.
	fs := basicFS(1)
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))
	c0.WriteAt(0, make([]byte, 1<<20))
	c1.WriteAt(1<<20, make([]byte, 1<<20))
	svc := sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20}.Cost(1 << 20)
	if got := fs.Servers().Member(0).FreeAt(); got < 2*svc {
		t.Fatalf("server drained at %v, want >= %v", got, 2*svc)
	}
}

func TestSegOverheadCharged(t *testing.T) {
	fs := basicFS(1)
	clkA := sim.NewClock(0)
	a, _ := fs.Open("f", 0, clkA)
	segs := make([]Segment, 100)
	for i := range segs {
		segs[i] = Segment{Off: int64(i * 10), Data: []byte("x")}
	}
	a.WriteV(segs)
	tv := clkA.Now()

	fs2 := basicFS(1)
	clkB := sim.NewClock(0)
	b, _ := fs2.Open("f", 0, clkB)
	b.WriteAt(0, make([]byte, 100))
	tc := clkB.Now()

	if tv <= tc {
		t.Fatalf("vectored 100-segment write (%v) should cost more than one contiguous write (%v)", tv, tc)
	}
	if tv-tc < 99*sim.Microsecond {
		t.Fatalf("segment overhead under-charged: delta %v", tv-tc)
	}
}

func TestZeroLengthOpsAreFree(t *testing.T) {
	fs := basicFS(1)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	c.WriteAt(0, nil)
	c.ReadAt(0, nil)
	c.WriteV(nil)
	if clk.Now() != 0 {
		t.Fatalf("zero-length ops charged %v", clk.Now())
	}
}

func TestStoreDataOffAccountsTimeOnly(t *testing.T) {
	cfg := basicFS(2).Config()
	cfg.StoreData = false
	fs := MustNew(cfg)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	c.WriteAt(0, make([]byte, 1<<20))
	if clk.Now() == 0 {
		t.Fatal("time not accounted with StoreData=false")
	}
	size, _ := fs.FileSize("f")
	if size != 1<<20 {
		t.Fatalf("size = %d", size)
	}
	snap, _ := fs.Snapshot("f", ext(0, 8))
	if !bytes.Equal(snap, make([]byte, 8)) {
		t.Fatal("dataless store returned bytes")
	}
}

func TestConfigValidation(t *testing.T) {
	slow := sim.LinearCost{Latency: sim.Millisecond}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"negative servers", Config{Servers: -1}, false},
		{"zero stripe defaults", Config{Mode: RoundRobin}, true},
		{"negative stripe round-robin", Config{StripeSize: -1, Mode: RoundRobin}, false},
		{"negative stripe affinity ok", Config{StripeSize: -1, Mode: ClientAffinity}, true},
		{"nil degraded model", Config{Servers: 2, Degraded: map[int]*sim.LinearCost{0: nil}}, false},
		{"degraded server out of range", Config{Servers: 2, Degraded: map[int]*sim.LinearCost{2: &slow}}, false},
		{"degraded negative server", Config{Servers: 2, Degraded: map[int]*sim.LinearCost{-1: &slow}}, false},
		{"degraded in range", Config{Servers: 2, Degraded: map[int]*sim.LinearCost{1: &slow}}, true},
		{"affinity out of range", Config{Servers: 2, Affinity: []int{0, 2}}, false},
		{"affinity negative", Config{Servers: 2, Affinity: []int{-1}}, false},
		{"affinity in range", Config{Servers: 4, Mode: ClientAffinity, Affinity: []int{3, 0, 3}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verr := tc.cfg.Validate()
			fs, nerr := New(tc.cfg)
			if tc.ok {
				if verr != nil || nerr != nil {
					t.Fatalf("Validate=%v New err=%v, want both nil", verr, nerr)
				}
				if fs == nil {
					t.Fatal("New returned nil fs without error")
				}
			} else {
				if verr == nil || nerr == nil {
					t.Fatalf("Validate=%v New err=%v, want both non-nil", verr, nerr)
				}
				if fs != nil {
					t.Fatal("New returned a fs alongside an error")
				}
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || ClientAffinity.String() != "client-affinity" {
		t.Fatal("mode strings wrong")
	}
	if StripeMode(9).String() == "" {
		t.Fatal("unknown mode should still print")
	}
}

func TestWrittenExtentsTrackStores(t *testing.T) {
	fs := basicFS(1)
	clock := sim.NewClock(0)
	c, err := fs.Open("w.dat", 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	c.WriteAt(100, []byte("abcd"))
	c.WriteAt(104, []byte("efgh")) // touching: coalesces
	c.WriteAt(1<<20, []byte("zz")) // far hole in between
	got, err := fs.WrittenExtents("w.dat")
	if err != nil {
		t.Fatal(err)
	}
	want := interval.List{ext(100, 8), ext(1<<20, 2)}
	if !got.Equal(want) {
		t.Fatalf("written extents = %v, want %v", got, want)
	}

	// A sparse read spanning the hole: written parts return data, the hole
	// reads zero even into a dirty buffer.
	buf := make([]byte, 1<<20+2-100)
	for i := range buf {
		buf[i] = 0xff
	}
	c.ReadAt(100, buf)
	if string(buf[:8]) != "abcdefgh" || string(buf[len(buf)-2:]) != "zz" {
		t.Fatalf("sparse read edges = %q %q", buf[:8], buf[len(buf)-2:])
	}
	for i := 8; i < len(buf)-2; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, buf[i])
		}
	}
}

func TestWrittenExtentsEmptyWhenDataless(t *testing.T) {
	cfg := basicFS(1).Config()
	cfg.StoreData = false
	fs := MustNew(cfg)
	c, err := fs.Open("d.dat", 0, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	c.WriteAt(0, []byte("data"))
	got, err := fs.WrittenExtents("d.dat")
	if err != nil || len(got) != 0 {
		t.Fatalf("dataless written extents = %v, %v", got, err)
	}
	buf := []byte{1, 2, 3, 4}
	c.ReadAt(0, buf)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("dataless read = %v, want zeros", buf)
	}
	if n, err := fs.FileSize("d.dat"); err != nil || n != 4 {
		t.Fatalf("size = %d, %v", n, err)
	}
}
