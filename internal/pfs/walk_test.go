package pfs

import (
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// turnCounter counts each actor's coordinator turns. After every turn it
// fills the file system's tally scratch with junk, as another client's
// tally would while the turn's owner was yielding: a call that tallied
// again after a turn leaves its own loads there instead, and one that read
// the scratch after a turn books the junk.
type turnCounter struct {
	sim.Coord
	fs    *FileSystem
	turns []int
}

func (c *turnCounter) Await(id int, t sim.VTime) {
	c.Coord.Await(id, t)
	c.turns[id]++
	for i := range c.fs.loads {
		c.fs.loads[i] = junk
	}
}

// Unwrap lets the event loop find its own coordinator.
func (c *turnCounter) Unwrap() sim.Coord { return c.Coord }

// junk is what turnCounter leaves in the tally scratch.
var junk = booking{server: -1, bytes: -1, reqs: -1, at: -1}

// untouched reports whether the scratch still holds the junk.
func (c *turnCounter) untouched() bool {
	return !slices.ContainsFunc(c.fs.loads, func(l booking) bool { return l != junk })
}

// runCounted is onEngine with the run's coordinator under a turnCounter.
func runCounted(t *testing.T, fs *FileSystem, clients int, body func(rank int)) *turnCounter {
	t.Helper()
	eng := des.New()
	coord := &turnCounter{Coord: eng.NewCoord(clients), fs: fs, turns: make([]int, clients)}
	fs.SetCoord(coord)
	err := eng.Run(coord, clients, func(rank int) {
		defer coord.Done(rank)
		body(rank)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return coord
}

// TestACallTakesOneTurnPerArrivalInstant: two ranks each write [0,32),
// one 8-byte piece on each of 4 servers. A call takes the coordinator turn
// once per distinct instant its pieces arrive at, from the earliest — none
// at the send instant when every piece arrives later. With no skew it
// tallies in its one turn; with skew, once, before its first turn, and it
// books from its own copy. WriteAtomic holds the one turn it takes for the
// whole call, however its pieces arrive.
func TestACallTakesOneTurnPerArrivalInstant(t *testing.T) {
	const late = 50 * sim.Microsecond
	cases := []struct {
		name   string
		skew   func(rank, server int) sim.VTime
		atomic bool
		turns  int
	}{
		{"no skew", nil, false, 1},
		{"every server late", func(int, int) sim.VTime { return late }, false, 1},
		{"two late instants", func(_, server int) sim.VTime { return late * sim.VTime(1+server/2) }, false, 2},
		{"four instants", func(_, server int) sim.VTime { return late * sim.VTime(server) }, false, 4},
		{"atomic, two late instants", func(_, server int) sim.VTime { return late * sim.VTime(1+server/2) }, true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := MustNew(Config{
				Servers: 4, StripeSize: 8,
				ServerModel:  sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20},
				ClientModel:  sim.LinearCost{Latency: 5 * sim.Microsecond, BytesPerSec: 8 << 20},
				StoreData:    true,
				AtomicListIO: tc.atomic,
			})
			fs.skew = tc.skew
			coord := runCounted(t, fs, 2, func(rank int) {
				c, _ := fs.Open("f", rank, sim.NewClock(0))
				b := Batch{Ext: interval.List{{Off: 0, Len: 32}}}
				if tc.atomic {
					if err := c.WriteAtomic(b); err != nil {
						t.Error(err)
					}
					return
				}
				c.Write(b)
			})
			if want := []int{tc.turns, tc.turns}; !slices.Equal(coord.turns, want) {
				t.Errorf("ranks took %v coordinator turns, want %v", coord.turns, want)
			}
			if tc.skew != nil && !tc.atomic && !coord.untouched() {
				t.Errorf("the tally scratch holds %v: a skewed call tallied after a turn", fs.loads)
			}
			for _, s := range fs.ServerStats() {
				if s.Requests != 2 || s.Bytes != 16 {
					t.Errorf("server %d booked %d requests, %d bytes; want 2, 16", s.Server, s.Requests, s.Bytes)
				}
			}
		})
	}
}

// TestSkewedClientsInterleaveOnOneFileSystem: two ranks write batches of
// different sizes and extent counts over 3 servers, each reaching its
// servers at three distinct instants, so each yields between its bookings
// and the other tallies and books in between: turns (0, r0), (0, r1),
// (10, r1), (15, r0), (20, r0), (40, r1), in µs. Every server's traffic,
// busy time and drain time, and the owners, are pinned by hand from each
// call's own loads:
//
//	r0 [0,40):                    s0 16 B at 0, s1 16 B at 15, s2 8 B at 20
//	r1 [8,12) [20,44) [50,53):    s0 2 pieces 7 B at 40, s1 12 B at 0, s2 12 B at 10
//
// A piece's service is 10 µs plus 1 µs a byte.
func TestSkewedClientsInterleaveOnOneFileSystem(t *testing.T) {
	const us = sim.Microsecond
	fs := MustNew(Config{
		Servers: 3, StripeSize: 16,
		ServerModel: sim.LinearCost{Latency: 10 * us, BytesPerSec: 1_000_000},
		StoreData:   true,
	})
	skew := [][]sim.VTime{{0, 15 * us, 20 * us}, {40 * us, 0, 10 * us}}
	fs.skew = func(rank, server int) sim.VTime { return skew[rank][server] }
	batches := []Batch{
		{Ext: interval.List{ext(0, 40)}},
		{Ext: interval.List{ext(8, 4), ext(20, 24), ext(50, 3)}},
	}
	done := make([]sim.VTime, 2)
	onEngine(t, fs, 2, func(rank int) {
		clk := sim.NewClock(0)
		c, _ := fs.Open("f", rank, clk)
		c.Write(batches[rank])
		done[rank] = clk.Now()
	})
	want := []ServerStats{
		{Server: 0, Requests: 3, Bytes: 23, Busy: 53 * us, FreeAt: 67 * us}, // r0 [0,26), r1 [40,67)
		{Server: 1, Requests: 2, Bytes: 28, Busy: 48 * us, FreeAt: 48 * us}, // r1 [0,22), r0 [22,48)
		{Server: 2, Requests: 2, Bytes: 20, Busy: 40 * us, FreeAt: 50 * us}, // r1 [10,32), r0 [32,50)
	}
	if got := fs.ServerStats(); !slices.Equal(got, want) {
		t.Errorf("server stats = %+v, want %+v", got, want)
	}
	if want := []sim.VTime{50 * us, 67 * us}; !slices.Equal(done, want) {
		t.Errorf("ranks finish at %v, want %v", done, want)
	}
	// Each byte is the rank whose piece its server completes last.
	if got, want := image(t, fs, "f", 0, 53), "00000000111100000000000000000000000000001111......111"; got != want {
		t.Errorf("owners = %q, want %q", got, want)
	}
}
