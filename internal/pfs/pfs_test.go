package pfs

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

// MustNew is New panicking on an invalid configuration, for tests whose
// configurations are static.
func MustNew(cfg Config) *FileSystem {
	fs, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// Owners returns who wrote the named file: its stored bytes as file-ordered
// maximal runs, each owned by the rank whose data the latest write to those
// bytes carried — the records swept with no views. Bytes never written
// belong to no run. A file system that keeps no records returns nil.
func (fs *FileSystem) Owners(name string) ([]index.Owned, error) {
	var log []index.Record
	err := fs.EachRecord(name, func(r index.Record) { log = append(log, r) })
	var out []index.Owned
	index.Sweep(log, nil, func(p *index.Piece) {
		if n := len(out) - 1; n < 0 || out[n].Rank != p.Owner || out[n].End() != p.Off {
			out = append(out, index.Owned{Extent: interval.Extent{Off: p.Off}, Rank: p.Owner})
		}
		out[len(out)-1].Len += p.Len
	})
	return out, err
}

// FileSize returns where the named file's last write record ends: 0 on a
// file system that keeps no records.
func (fs *FileSystem) FileSize(name string) (int64, error) {
	var size int64
	err := fs.EachRecord(name, func(r index.Record) {
		for _, e := range r.Ext {
			size = max(size, e.End())
		}
	})
	return size, err
}

// bookedBytes returns the bytes every server of fs has booked.
func bookedBytes(fs *FileSystem) int64 {
	var n int64
	for _, s := range fs.ServerStats() {
		n += s.Bytes
	}
	return n
}

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

// writeAt writes the n bytes at off as one extent of the client's own.
func writeAt(c *Client, off, n int64) {
	c.Write(Batch{Ext: interval.List{{Off: off, Len: n}}})
}

// writeAs writes the n bytes at off as rank writer's data, as an
// aggregator does.
func writeAs(c *Client, off, n int64, writer int) {
	c.Write(Batch{Ext: interval.List{{Off: off, Len: n}}, Writers: []int{writer}})
}

// ownersImage renders owner runs over [off, off+n), one character per
// byte: '0'+rank where the byte is rank's, '.' where it was never written.
func ownersImage(owners []index.Owned, off, n int64) string {
	img := bytes.Repeat([]byte{'.'}, int(n))
	for _, o := range owners {
		for b := max(o.Off, off); b < min(o.End(), off+n); b++ {
			img[b-off] = byte('0' + o.Rank)
		}
	}
	return string(img)
}

// image is ownersImage of the named file.
func image(t *testing.T, fs *FileSystem, name string, off, n int64) string {
	t.Helper()
	owners, err := fs.Owners(name)
	if err != nil {
		t.Fatal(err)
	}
	return ownersImage(owners, off, n)
}

// written is every byte range ever stored in the named file: the union of
// its owner runs.
func written(t *testing.T, fs *FileSystem, name string) interval.List {
	t.Helper()
	owners, err := fs.Owners(name)
	if err != nil {
		t.Fatal(err)
	}
	var all interval.List
	for _, o := range owners {
		all = append(all, o.Extent)
	}
	return all.Normalize()
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := basicFS(2)
	clk := sim.NewClock(0)
	c, err := fs.Open("f", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	writeAt(c, 10, 11)
	if got, want := image(t, fs, "f", 8, 15), "..00000000000.."; got != want {
		t.Fatalf("owners %q, want %q", got, want)
	}
	if c.BytesWritten() != 11 {
		t.Fatalf("bytes written = %d", c.BytesWritten())
	}
	if clk.Now() == 0 {
		t.Fatal("write charged nothing")
	}
}

func TestUnwrittenBytesReadZero(t *testing.T) {
	fs := basicFS(1)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 100, 3)
	if got, want := image(t, fs, "f", 98, 6), "..000."; got != want {
		t.Fatalf("owners = %q, want %q: bytes never written belong to no run", got, want)
	}
}

// TestWriteCrossesStripeBoundary writes one extent over four stripes of
// three servers: the owners keep it as one run.
func TestWriteCrossesStripeBoundary(t *testing.T) {
	fs := basicFS(3)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 16-5, 3*16+10)
	owners, _ := fs.Owners("f")
	if want := []index.Owned{{Extent: ext(11, 58)}}; !reflect.DeepEqual(owners, want) {
		t.Fatalf("owners = %v, want %v", owners, want)
	}
}

func TestSnapshotAndFileSize(t *testing.T) {
	fs := basicFS(1)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 6)
	if got := image(t, fs, "f", 2, 3); got != "000" {
		t.Fatalf("owners of [2,5) = %q", got)
	}
	size, err := fs.FileSize("f")
	if err != nil || size != 6 {
		t.Fatalf("size = %d, %v", size, err)
	}
	if _, err := fs.Owners("missing"); err == nil {
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
	if got, want := image(t, fs, "f", 0, 22), "00........00........00"; got != want {
		t.Fatalf("owners = %q, want %q", got, want)
	}
}

func TestStripingSpreadsLoad(t *testing.T) {
	// 4 servers, stripe 16: a 64-byte write at 0 touches all 4 equally.
	fs := basicFS(4)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 64)
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
	writeAt(c, 0, 64)
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
	writeAt(c0, 0, 1<<20)
	writeAt(c1, 1<<20, 1<<20)
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
	writeAt(b, 0, 100)
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
	writeAt(c, 0, 0)
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
	writeAt(c, 0, 1<<20)
	if clk.Now() == 0 {
		t.Fatal("time not accounted with StoreData=false")
	}
	if n := bookedBytes(fs); n != 1<<20 {
		t.Fatalf("servers booked %d bytes", n)
	}
	if owners, err := fs.Owners("f"); owners != nil || err != nil {
		t.Fatalf("a file system that keeps no records returned owners %v, %v", owners, err)
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
	c, err := fs.Open("w.dat", 0, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	writeAt(c, 100, 4)
	writeAt(c, 104, 4)    // touching: coalesces
	writeAt(c, 1<<20, 2)  // far hole in between
	writeAs(c, 102, 2, 3) // another rank's data inside the first run
	want := interval.List{ext(100, 8), ext(1<<20, 2)}
	if got := written(t, fs, "w.dat"); !slices.Equal(got, want) {
		t.Fatalf("written extents = %v, want %v", got, want)
	}
	if got := image(t, fs, "w.dat", 99, 10); got != ".00330000." {
		t.Fatalf("owners = %q", got)
	}
}

func TestWrittenExtentsEmptyWhenDataless(t *testing.T) {
	cfg := basicFS(1).Config()
	cfg.StoreData = false
	fs := MustNew(cfg)
	clk := sim.NewClock(0)
	c, err := fs.Open("d.dat", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	writeAt(c, 0, 4)
	if clk.Now() == 0 {
		t.Fatal("a write to a file that keeps no records charged nothing")
	}
	if got := written(t, fs, "d.dat"); len(got) != 0 {
		t.Fatalf("dataless written extents = %v", got)
	}
	if n := bookedBytes(fs); n != 4 {
		t.Fatalf("servers booked %d bytes", n)
	}
}
