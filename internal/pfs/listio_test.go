package pfs

import (
	"errors"
	"testing"

	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// onEngine runs body as clients 0..clients-1 of fs, concurrent actors of
// the event loop booking the servers through the run's coordinator.
func onEngine(t *testing.T, fs *FileSystem, clients int, body func(rank int)) {
	t.Helper()
	eng := des.New()
	coord := eng.NewCoord(clients)
	fs.SetCoord(coord)
	err := eng.Run(coord, clients, func(rank int) {
		defer coord.Done(rank)
		body(rank)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func atomicFS() *FileSystem {
	cfg := basicFS(2).Config()
	cfg.AtomicListIO = true
	return MustNew(cfg)
}

func TestWriteVAtomicRequiresCapability(t *testing.T) {
	fs := basicFS(1)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	err := c.WriteVAtomic([]Segment{{Off: 0, Data: []byte("x")}})
	if !errors.Is(err, ErrNoAtomicListIO) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteVAtomicStoresData(t *testing.T) {
	fs := atomicFS()
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	if err := c.WriteVAtomic([]Segment{
		{Off: 0, Data: []byte("AA")},
		{Off: 10, Data: []byte("BB")},
	}); err != nil {
		t.Fatal(err)
	}
	snap, _ := fs.Snapshot("f", ext(0, 12))
	if string(snap[:2]) != "AA" || string(snap[10:12]) != "BB" {
		t.Fatalf("snapshot = %q", snap)
	}
	if c.BytesWritten() != 4 {
		t.Fatalf("bytes written = %d", c.BytesWritten())
	}
}

func TestWriteVAtomicNeverInterleaves(t *testing.T) {
	// Concurrent atomic vectored writes to the same overlapped region:
	// the result must be entirely one writer's data, for every region.
	fs := atomicFS()
	const writers = 8
	const segCount = 16
	onEngine(t, fs, writers, func(w int) {
		c, _ := fs.Open("f", w, sim.NewClock(0))
		segs := make([]Segment, segCount)
		for i := range segs {
			data := make([]byte, 8)
			for k := range data {
				data[k] = byte(w + 1)
			}
			segs[i] = Segment{Off: int64(i * 16), Data: data}
		}
		if err := c.WriteVAtomic(segs); err != nil {
			t.Error(err)
		}
	})
	// Every 8-byte segment region must be uniform (single writer).
	for i := 0; i < segCount; i++ {
		snap, _ := fs.Snapshot("f", ext(int64(i*16), 8))
		first := snap[0]
		if first == 0 || first > writers {
			t.Fatalf("region %d has foreign byte %d", i, first)
		}
		for _, b := range snap {
			if b != first {
				t.Fatalf("region %d interleaved: %v", i, snap)
			}
		}
	}
	// Moreover, ALL regions must come from the same writer: the whole
	// vectored call is atomic, not just each segment.
	first, _ := fs.Snapshot("f", ext(0, 1))
	for i := 1; i < segCount; i++ {
		snap, _ := fs.Snapshot("f", ext(int64(i*16), 1))
		if snap[0] != first[0] {
			t.Fatalf("call-level atomicity broken: region 0 by %d, region %d by %d",
				first[0], i, snap[0])
		}
	}
}

func TestWriteVAtomicSerializesVirtualTime(t *testing.T) {
	fs := atomicFS()
	clkA, clkB := sim.NewClock(0), sim.NewClock(0)
	a, _ := fs.Open("f", 0, clkA)
	b, _ := fs.Open("f", 1, clkB)
	if err := a.WriteVAtomic([]Segment{{Off: 0, Data: make([]byte, 1<<20)}}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteVAtomic([]Segment{{Off: 0, Data: make([]byte, 1<<20)}}); err != nil {
		t.Fatal(err)
	}
	if clkB.Now() < clkA.Now() {
		t.Fatalf("second atomic call (%v) did not queue behind first (%v)", clkB.Now(), clkA.Now())
	}
}

func TestConcurrentDisjointWritersContentAndConservation(t *testing.T) {
	// 16 concurrent clients writing disjoint striped regions: all content
	// lands correctly and the servers' total busy time equals the sum of
	// the individual service demands (virtual work is conserved under
	// concurrency).
	fs := basicFS(4)
	const writers, size = 16, 4096
	onEngine(t, fs, writers, func(w int) {
		c, _ := fs.Open("f", w, sim.NewClock(0))
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(w)
		}
		c.WriteAt(int64(w*size), data)
	})
	for w := 0; w < writers; w++ {
		snap, _ := fs.Snapshot("f", ext(int64(w*size), size))
		for i, b := range snap {
			if b != byte(w) {
				t.Fatalf("writer %d byte %d = %d", w, i, b)
			}
		}
	}
	var busy sim.VTime
	var ops int64
	for i := 0; i < fs.Servers().Size(); i++ {
		o, bz := fs.Servers().Member(i).Stats()
		ops += o
		busy += bz
	}
	// Each writer's bytes are booked as one Acquire per server (ops =
	// writers*servers), whose service charges the per-stripe-unit request
	// latency for every unit plus the byte transfer: total busy time is
	// exactly the sum of those demands — conservation under concurrency.
	if ops != writers*4 {
		t.Fatalf("server ops = %d, want %d", ops, writers*4)
	}
	stripeUnitsPerServerPerWriter := int64(size) / fs.Config().StripeSize / 4
	bytesPerServerPerWriter := int64(size / 4)
	perWriterServer := sim.VTime(stripeUnitsPerServerPerWriter)*fs.Config().ServerModel.Latency +
		sim.LinearCost{BytesPerSec: fs.Config().ServerModel.BytesPerSec}.Cost(bytesPerServerPerWriter)
	if want := sim.VTime(writers*4) * perWriterServer; busy != want {
		t.Fatalf("total busy = %v, want %v", busy, want)
	}
}
