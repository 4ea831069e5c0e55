package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"atomio/internal/sim"
)

func TestStressRandomPointToPoint(t *testing.T) {
	// Every rank sends a deterministic pseudo-random set of messages to
	// every other rank, then receives exactly what it expects, in
	// per-sender FIFO order. Exercises the matching queue under load.
	const p, perPair = 6, 25
	run(t, p, func(c *Comm) error {
		// Phase 1: everybody sends.
		for dst := 0; dst < p; dst++ {
			if dst == c.Rank() {
				continue
			}
			r := rand.New(rand.NewSource(int64(c.Rank()*100 + dst)))
			for k := 0; k < perPair; k++ {
				n := r.Intn(200)
				payload := make([]byte, n)
				for i := range payload {
					payload[i] = byte(r.Intn(256))
				}
				c.Send(dst, k%3, payload)
			}
		}
		// Phase 2: everybody receives and checks, per sender, per tag.
		for src := 0; src < p; src++ {
			if src == c.Rank() {
				continue
			}
			r := rand.New(rand.NewSource(int64(src*100 + c.Rank())))
			expect := make([][]byte, 0, perPair)
			tags := make([]int, 0, perPair)
			for k := 0; k < perPair; k++ {
				n := r.Intn(200)
				payload := make([]byte, n)
				for i := range payload {
					payload[i] = byte(r.Intn(256))
				}
				expect = append(expect, payload)
				tags = append(tags, k%3)
			}
			// Receive per tag: FIFO within (src, tag).
			for tag := 0; tag < 3; tag++ {
				for k := range expect {
					if tags[k] != tag {
						continue
					}
					data, st := c.Recv(src, tag)
					if st.Source != src || len(data) != len(expect[k]) {
						return fmt.Errorf("rank %d from %d tag %d: got %d bytes, want %d",
							c.Rank(), src, tag, len(data), len(expect[k]))
					}
					for i := range data {
						if data[i] != expect[k][i] {
							return fmt.Errorf("payload corruption from %d", src)
						}
					}
				}
			}
		}
		return nil
	})
}

func TestStressCollectiveStorm(t *testing.T) {
	// Many different collectives back to back on several communicators:
	// the internal tag sequencing must keep everything separate.
	run(t, 6, func(c *Comm) error {
		dup := c.Dup()
		sub := c.Split(c.Rank()%2, 0)
		for iter := 0; iter < 20; iter++ {
			sum := DecodeInt64s(c.Allreduce(EncodeInt64s(int64(iter)), OpSumInt64))[0]
			if sum != int64(iter*c.Size()) {
				return fmt.Errorf("world allreduce iter %d = %d", iter, sum)
			}
			all := dup.Allgather(EncodeInt64s(int64(c.Rank() * iter)))
			for r, b := range all {
				if DecodeInt64s(b)[0] != int64(r*iter) {
					return fmt.Errorf("dup allgather corrupted")
				}
			}
			// Parts are surrendered to Alltoall: built fresh, never reused.
			parts := make([][]byte, dup.Size())
			for dst := range parts {
				parts[dst] = EncodeInt64s(int64(iter), int64(c.Rank()), int64(dst))
			}
			for src, b := range dup.Alltoall(parts) {
				if v := DecodeInt64s(b); v[0] != int64(iter) || v[1] != int64(src) || v[2] != int64(c.Rank()) {
					return fmt.Errorf("dup alltoall iter %d: from %d got %v", iter, src, v)
				}
			}
			subSum := DecodeInt64s(sub.Allreduce(EncodeInt64s(1), OpSumInt64))[0]
			if subSum != int64(sub.Size()) {
				return fmt.Errorf("sub allreduce = %d", subSum)
			}
			if iter%5 == 0 {
				c.Barrier()
			}
		}
		return nil
	})
}

func TestNestedSplit(t *testing.T) {
	run(t, 8, func(c *Comm) error {
		half := c.Split(c.Rank()/4, c.Rank()) // two comms of 4
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size = %d", quarter.Size())
		}
		// Identify my partner's world rank through the nested comm.
		partner := quarter.WorldRank(1 - quarter.Rank())
		want := c.Rank() ^ 1 // pairs (0,1),(2,3),...
		if partner != want {
			return fmt.Errorf("rank %d paired with %d, want %d", c.Rank(), partner, want)
		}
		quarter.Barrier()
		return nil
	})
}

func TestClockMonotonicThroughCollectives(t *testing.T) {
	cfg := Config{
		Procs:        5,
		Net:          sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 26},
		SendOverhead: sim.Microsecond,
		RecvOverhead: sim.Microsecond,
	}
	if _, err := Run(cfg, func(c *Comm) error {
		prev := c.Now()
		ops := []func(){
			func() { c.Barrier() },
			func() { c.Bcast(make([]byte, 100), 2) },
			func() { c.Allgather(make([]byte, 64)) },
			func() { c.Allreduce(EncodeInt64s(1, 2, 3), OpSumInt64) },
			func() { c.Alltoall(make([][]byte, c.Size())) },
		}
		for i, op := range ops {
			op()
			if c.Now() < prev {
				return fmt.Errorf("clock went backwards after op %d", i)
			}
			prev = c.Now()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherVolumeScalesLinearly(t *testing.T) {
	// The ring allgather moves (P-1) blocks per rank; with a pure
	// bandwidth network, doubling the block size should roughly double
	// the completion time. Pins the cost model the handshake analysis
	// relies on.
	timeFor := func(blockSize int) sim.VTime {
		cfg := Config{Procs: 4, Net: sim.LinearCost{BytesPerSec: 1 << 20}}
		res, err := Run(cfg, func(c *Comm) error {
			c.Allgather(make([]byte, blockSize))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxTime
	}
	t1 := timeFor(1 << 10)
	t2 := timeFor(1 << 11)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("allgather time ratio = %.2f, want ~2 (t1=%v t2=%v)", ratio, t1, t2)
	}
}

func TestMailboxPendingDrains(t *testing.T) {
	// After a balanced run no messages may remain queued.
	cfg := Config{Procs: 3}
	w := newWorld(cfg.withDefaults())
	_ = w
	run(t, 3, func(c *Comm) error {
		c.Send((c.Rank()+1)%3, 0, []byte("x"))
		c.Recv((c.Rank()+2)%3, 0)
		c.Barrier()
		return nil
	})
}
