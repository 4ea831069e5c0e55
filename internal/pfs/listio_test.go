package pfs

import (
	"errors"
	"strings"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
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
	err := c.WriteAtomic(Batch{Ext: interval.List{{Off: 0, Len: 1}}})
	if !errors.Is(err, ErrNoAtomicListIO) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteVAtomicStoresData(t *testing.T) {
	fs := atomicFS()
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	if err := c.WriteAtomic(Batch{Ext: interval.List{ext(0, 2), ext(10, 2)}, Writers: []int{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if got, want := image(t, fs, "f", 0, 12), "33........44"; got != want {
		t.Fatalf("owners = %q, want %q", got, want)
	}
	if c.BytesWritten() != 4 {
		t.Fatalf("bytes written = %d", c.BytesWritten())
	}
}

func TestWriteVAtomicNeverInterleaves(t *testing.T) {
	// Concurrent atomic vectored writes to the same overlapped region:
	// the result must be entirely one writer's data, for every region —
	// even where each writer reaches the two servers at different times,
	// odd ranks server 0 late and even ranks server 1.
	fs := atomicFS()
	fs.skew = func(rank, server int) sim.VTime {
		if (rank+server)%2 == 1 {
			return 50 * sim.Microsecond
		}
		return 0
	}
	const writers = 8
	const segCount = 16
	onEngine(t, fs, writers, func(w int) {
		c, _ := fs.Open("f", w, sim.NewClock(0))
		b := Batch{Ext: make(interval.List, segCount)}
		for i := range b.Ext {
			b.Ext[i] = ext(int64(i*16), 8)
		}
		if err := c.WriteAtomic(b); err != nil {
			t.Error(err)
		}
	})
	// Every 8-byte segment region must be one writer's, and ALL regions
	// the same writer's: the whole vectored call is atomic, not just each
	// segment.
	want := strings.Repeat(strings.Repeat(image(t, fs, "f", 0, 1), 8)+"........", segCount)
	if got := image(t, fs, "f", 0, segCount*16); got != want || want[0] == '.' {
		t.Fatalf("owners = %q, want one writer's %q", got, want)
	}
}

func TestWriteVAtomicSerializesVirtualTime(t *testing.T) {
	fs := atomicFS()
	clkA, clkB := sim.NewClock(0), sim.NewClock(0)
	a, _ := fs.Open("f", 0, clkA)
	b, _ := fs.Open("f", 1, clkB)
	if err := a.WriteAtomic(Batch{Ext: interval.List{ext(0, 1<<20)}}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAtomic(Batch{Ext: interval.List{ext(0, 1<<20)}}); err != nil {
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
		writeAt(c, int64(w*size), size)
	})
	owners, _ := fs.Owners("f")
	for w := 0; w < writers; w++ {
		if want := (index.Owned{Extent: ext(int64(w*size), size), Rank: w}); len(owners) != writers || owners[w] != want {
			t.Fatalf("owners = %v, want run %d to be %v", owners, w, want)
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
