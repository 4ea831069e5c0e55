package mpi

import (
	"fmt"
	"math/rand"
	"strings"
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
				c.send(dst, k%3, payload)
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
					data := c.recv(src, tag).data
					if len(data) != len(expect[k]) {
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
	// the per-communicator tag sequencing must keep everything separate.
	run(t, 6, func(c *Comm) error {
		dup := c.Dup()
		sub := subComm(c, parity(c.Size(), c.Rank()%2), subCtx+c.Rank()%2)
		for iter := 0; iter < 20; iter++ {
			// Only the root's payload may come back.
			root := iter % c.Size()
			if v := DecodeInt64s(c.bcast(EncodeInt64s(int64(10*iter+c.Rank())), root))[0]; v != int64(10*iter+root) {
				return fmt.Errorf("world bcast iter %d = %d", iter, v)
			}
			all := dup.Allgather(EncodeInt64s(int64(c.Rank() * iter)))
			for r, b := range all {
				if DecodeInt64s(b)[0] != int64(r*iter) {
					return fmt.Errorf("dup allgather corrupted")
				}
			}
			// Each part's size names its iteration, sender and receiver.
			size := func(src, dst int) int64 { return int64((iter*dup.Size()+src)*dup.Size() + dst) }
			parts := make([]Part, dup.Size())
			for dst := range parts {
				parts[dst] = Part{Peer: dst, Size: size(c.Rank(), dst)}
			}
			for src, pt := range dup.Alltoall(parts) {
				if pt.Peer != src || pt.Size != size(src, c.Rank()) {
					return fmt.Errorf("dup alltoall iter %d: from %d got %+v", iter, src, pt)
				}
			}
			for r, b := range sub.Allgather(EncodeInt64s(int64(iter), int64(c.Rank()))) {
				if v := DecodeInt64s(b); v[0] != int64(iter) || v[1] != int64(2*r+c.Rank()%2) {
					return fmt.Errorf("sub allgather iter %d: entry %d = %v", iter, r, v)
				}
			}
			if iter%5 == 0 {
				c.Barrier()
			}
		}
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
			func() { c.bcast(make([]byte, 100), 2) },
			func() { c.Allgather(make([]byte, 64)) },
			func() { c.Alltoall(nil) },
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

// TestMailboxPendingDrains: a run that receives every message it sends
// ends clean, and one that leaves a message queued — a rank skipped the
// receive a peer's send was meant for — fails with a diagnostic.
func TestMailboxPendingDrains(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		p := c.Size()
		c.bcast(EncodeInt64s(7), 1)
		c.Alltoall(nil)
		c.send((c.Rank()+1)%p, 0, []byte("x"))
		c.recv((c.Rank()+p-1)%p, 0)
		return nil
	})
	_, err := Run(Config{Procs: 3}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.send(2, 0, []byte("lost"))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mpi: 1 messages were sent but never received") {
		t.Errorf("run error = %v, want the unreceived-message diagnostic", err)
	}
}
