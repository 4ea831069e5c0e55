package mpi

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

// procCounts covers 1, powers of two, and awkward non-powers of two.
var procCounts = []int{1, 2, 3, 4, 5, 7, 8, 16}

func TestBarrierCompletes(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
			return nil
		})
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	// One rank is 1ms ahead; after a barrier with nonzero overheads every
	// rank must be at or past that rank's pre-barrier time.
	cfg := Config{Procs: 4, SendOverhead: sim.Microsecond, RecvOverhead: sim.Microsecond}
	res, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 2 {
			c.Clock().Advance(sim.Millisecond)
		}
		c.Barrier()
		if c.Now() < sim.Millisecond {
			return fmt.Errorf("rank %d at %v after barrier, want >= 1ms", c.Rank(), c.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range procCounts {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			run(t, p, func(c *Comm) error {
				for root := 0; root < c.Size(); root++ {
					var in []byte
					if c.Rank() == root {
						in = []byte(fmt.Sprintf("payload-from-%d", root))
					}
					out := c.bcast(in, root)
					want := fmt.Sprintf("payload-from-%d", root)
					if string(out) != want {
						return fmt.Errorf("rank %d root %d: got %q", c.Rank(), root, out)
					}
				}
				return nil
			})
		})
	}
}

func TestAllgatherVariableSizes(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 2*c.Rank()+1)
			got := c.Allgather(mine)
			for r, d := range got {
				want := bytes.Repeat([]byte{byte(r + 1)}, 2*r+1)
				if !bytes.Equal(d, want) {
					return fmt.Errorf("rank %d entry %d = %v, want %v", c.Rank(), r, d, want)
				}
			}
			return nil
		})
	}
}

// TestAllgatherCallerMayReuseBuffer pins the one copy the ring still makes:
// blocks are forwarded without copying, so a rank scribbling over its input
// the moment Allgather returns — while slower ranks are still forwarding
// that block — must not reach anyone's result.
func TestAllgatherCallerMayReuseBuffer(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 64)
			got := c.Allgather(mine)
			clear(mine)
			c.Barrier()
			for r, d := range got {
				if want := bytes.Repeat([]byte{byte(r + 1)}, 64); !bytes.Equal(d, want) {
					return fmt.Errorf("rank %d entry %d = %v, want %v", c.Rank(), r, d, want)
				}
			}
			return nil
		})
	}
}

// TestAlltoall checks the routing: each receiver gets, in ascending sender
// order, the size its sender priced the part at, and nothing from a sender
// without a part for it.
func TestAlltoall(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			// Rank r sends to itself and to the ranks r+1 and r+3 above it.
			var parts []Part
			for _, to := range []int{c.Rank(), c.Rank() + 1, c.Rank() + 3} {
				if to < c.Size() && (len(parts) == 0 || to > parts[len(parts)-1].Peer) {
					parts = append(parts, Part{Peer: to, Size: int64(c.Rank()*c.Size() + to)})
				}
			}
			got := c.Alltoall(parts)
			var from []int
			for _, pt := range got {
				if pt.Size != int64(pt.Peer*c.Size()+c.Rank()) {
					return fmt.Errorf("rank %d: part of size %d from %d", c.Rank(), pt.Size, pt.Peer)
				}
				from = append(from, pt.Peer)
			}
			var want []int
			for _, src := range []int{c.Rank() - 3, c.Rank() - 1, c.Rank()} {
				if src >= 0 {
					want = append(want, src)
				}
			}
			if !slices.Equal(from, want) {
				return fmt.Errorf("rank %d received from %v, want %v", c.Rank(), from, want)
			}
			return nil
		})
	}
}

// TestAlltoallRejectsUnorderedParts: parts must name distinct peers in
// ascending order, as the schedule walks them.
func TestAlltoallRejectsUnorderedParts(t *testing.T) {
	_, err := Run(Config{Procs: 3}, func(c *Comm) error {
		c.Alltoall([]Part{{Peer: 2}, {Peer: 1}})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "distinct peers in ascending order") {
		t.Fatalf("run error = %v, want the part-order panic", err)
	}
}

func TestCollectivesBackToBackDontCollide(t *testing.T) {
	// Interleave different collectives repeatedly; tag sequencing must keep
	// them separate.
	run(t, 5, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			if v := DecodeInt64s(c.bcast(EncodeInt64s(int64(i)), i%c.Size()))[0]; v != int64(i) {
				return fmt.Errorf("iter %d rank %d: bcast got %d", i, c.Rank(), v)
			}
			all := c.Allgather(EncodeInt64s(int64(c.Rank() * i)))
			for r, d := range all {
				if got := DecodeInt64s(d)[0]; got != int64(r*i) {
					return fmt.Errorf("iter %d rank %d: got %d", i, r, got)
				}
			}
			c.Barrier()
		}
		return nil
	})
}

func TestDup(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		d := c.Dup()
		if d.Rank() != c.Rank() || d.Size() != c.Size() {
			return fmt.Errorf("dup rank/size mismatch")
		}
		if d.ctx == c.ctx {
			return fmt.Errorf("dup kept the parent's context %d", c.ctx)
		}
		// Traffic on the dup must not be matchable on the parent, though
		// source and tag are the same and the dup's message arrives first.
		if c.Rank() == 0 {
			d.send(1, 0, []byte("on-dup"))
			c.send(1, 0, []byte("on-parent"))
		}
		if c.Rank() == 1 {
			fromParent := c.recv(0, 0).data
			fromDup := d.recv(0, 0).data
			if string(fromParent) != "on-parent" || string(fromDup) != "on-dup" {
				return fmt.Errorf("dup contexts collided: %q %q", fromParent, fromDup)
			}
		}
		return nil
	})
}

func TestBarrierMessageComplexity(t *testing.T) {
	// The dissemination barrier sends ceil(log2 P) messages per rank; with
	// per-message overhead o, a lone barrier costs each rank >= log2(P)*2o
	// (send+recv overhead) but no more than a few times that. This pins the
	// logarithmic shape used in the handshake cost analysis.
	const o = sim.Microsecond
	for _, p := range []int{4, 16} {
		res, err := Run(Config{Procs: p, SendOverhead: o, RecvOverhead: o}, func(c *Comm) error {
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for d := 1; d < p; d *= 2 {
			rounds++
		}
		min := sim.VTime(rounds) * 2 * o
		max := sim.VTime(rounds) * 6 * o
		if res.MaxTime < min || res.MaxTime > max {
			t.Fatalf("P=%d barrier time %v outside [%v,%v]", p, res.MaxTime, min, max)
		}
	}
}

// tally is what the message loops below count as their ranks receive: the
// counters the rendezvous keeps in closed form, and the bytes each world
// rank received in the collective in progress.
type tally struct {
	counters map[string]int64
	bytes    []int64
}

func newTally(procs int) *tally {
	return &tally{counters: map[string]int64{}, bytes: make([]int64, procs)}
}

// recv is c.recv counted as one message of collective op.
func (t *tally) recv(c *Comm, op string, from, tag int) []byte {
	data := c.recv(from, tag).data
	n := int64(len(data))
	t.bytes[c.group[c.rank]] += n
	t.counters[obs.MetricMsgs]++
	t.counters[obs.MetricMsgBytes] += n
	t.counters[obs.MetricMsgsPrefix+op]++
	return data
}

// messageBarrier is the dissemination barrier as simulated messages — the
// production Barrier until it was solved at a rendezvous, kept as the oracle
// TestRendezvousMatchesMessageSchedule compares it against.
func messageBarrier(c *Comm, t *tally) {
	tag := c.nextTag()
	p := c.Size()
	for dist := 1; dist < p; dist *= 2 {
		to := (c.rank + dist) % p
		from := (c.rank - dist + p) % p
		c.send(to, tag, nil)
		t.recv(c, "barrier", from, tag)
	}
}

// messageAlltoall is the pairwise alltoall as simulated messages, the oracle
// of Alltoall's timing: in step s a rank sends rank+s a message of its part's
// size — empty without one — and receives from rank-s. It delivers no part.
func messageAlltoall(c *Comm, t *tally, parts []Part) []Part {
	tag := c.nextTag()
	p := c.Size()
	size := make([]int64, p)
	for _, pt := range parts {
		size[pt.Peer] = pt.Size
	}
	for s := 1; s < p; s++ {
		c.send((c.rank+s)%p, tag, make([]byte, size[(c.rank+s)%p]))
		t.recv(c, "alltoall", (c.rank-s+p)%p, tag)
	}
	return nil
}

// messageAllgather is the ring allgather as simulated messages, the oracle
// of Allgather: in step s a rank forwards the block that originated at
// rank-s — its own first, then blocks received from the left.
func messageAllgather(c *Comm, t *tally, data []byte) [][]byte {
	tag := c.nextTag()
	p := c.Size()
	out := make([][]byte, p)
	out[c.rank] = append([]byte(nil), data...)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendIdx := (c.rank - s + p) % p
		c.send(right, tag, out[sendIdx])
		recvIdx := (c.rank - s - 1 + p) % p
		out[recvIdx] = t.recv(c, obs.TagAllgather, left, tag)
	}
	return out
}
