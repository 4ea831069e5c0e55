package pfs

import (
	"testing"

	"atomio/internal/sim"
)

// TestDegradedServerSlowsItsQueue pins the per-server service-model
// override: the same write costs more on a degraded server and the healthy
// servers are unaffected.
func TestDegradedServerSlowsItsQueue(t *testing.T) {
	base := basicFS(2).Config()
	slow := sim.LinearCost{Latency: 10 * base.ServerModel.Latency, BytesPerSec: base.ServerModel.BytesPerSec / 10}
	cfg := base
	cfg.Degraded = map[int]*sim.LinearCost{0: &slow}
	fsH := MustNew(base)
	fsD := MustNew(cfg)

	// Stripe 16, 2 servers: [0,16) lands on server 0, [16,32) on server 1.
	write := func(fs *FileSystem, off int64) sim.VTime {
		clk := sim.NewClock(0)
		c, err := fs.Open("f", 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		writeAt(c, off, 16)
		return clk.Now()
	}
	if h, d := write(fsH, 0), write(fsD, 0); d <= h {
		t.Fatalf("degraded server 0 write took %v, healthy %v; want slower", d, h)
	}
	if h, d := write(fsH, 16), write(fsD, 16); d != h {
		t.Fatalf("healthy server 1 write took %v on degraded fs, %v on healthy; want equal", d, h)
	}
}

// TestAffinityOverrideRoutesQueueing pins the skewed affinity map: ranks
// route to the servers the map names, not to rank % Servers.
func TestAffinityOverrideRoutesQueueing(t *testing.T) {
	cfg := basicFS(4).Config()
	cfg.Mode = ClientAffinity
	cfg.Affinity = []int{3, 3} // every rank lands on server 3
	fs := MustNew(cfg)
	for rank := 0; rank < 4; rank++ {
		c, _ := fs.Open("f", rank, sim.NewClock(0))
		writeAt(c, int64(rank)*64, 64)
	}
	for i, s := range fs.ServerStats() {
		wantBytes := int64(0)
		if i == 3 {
			wantBytes = 4 * 64
		}
		if s.Bytes != wantBytes {
			t.Fatalf("server %d moved %d bytes, want %d (stats %+v)", i, s.Bytes, wantBytes, s)
		}
	}
}

// TestServerStatsAccumulate pins the stats layer: requests, bytes, busy
// time and drain time per server for a striped write.
func TestServerStatsAccumulate(t *testing.T) {
	fs := basicFS(4) // stripe 16
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	writeAt(c, 0, 128) // 2 stripes per server
	writeAt(c, 0, 64)  // 1 stripe per server
	for _, s := range fs.ServerStats() {
		if s.Requests != 3 {
			t.Fatalf("server %d requests = %d, want 3 (2 + 1 write stripes)", s.Server, s.Requests)
		}
		if s.Bytes != 48 {
			t.Fatalf("server %d bytes = %d, want 48", s.Server, s.Bytes)
		}
		if s.Busy <= 0 || s.FreeAt < s.Busy {
			t.Fatalf("server %d occupancy implausible: %+v", s.Server, s)
		}
	}
}
