package mpi

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// sharedWorlds are the ways a world gets its engine: a Config free of one
// (Run brings its own event loop), and an event loop the caller hands over
// together with its coordinator.
var sharedWorlds = []struct {
	name string
	eng  sim.Engine
}{
	{"free", nil},
	{"eventloop", des.New()},
}

// runShared runs body on procs ranks of the given world flavour. Run fails
// a world that ends with Shared entries still in its memo table, so every
// test here also checks that the table drains.
func runShared(t *testing.T, eng sim.Engine, procs int, body RankFunc) {
	t.Helper()
	cfg := Config{Procs: procs, Timeout: 30 * time.Second, SendOverhead: sim.Microsecond}
	if eng != nil {
		cfg.Engine = eng
		cfg.Coord = eng.NewCoord(procs)
	}
	if _, err := Run(cfg, body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSharedComputesOncePerCall(t *testing.T) {
	const calls = 5
	for _, wf := range sharedWorlds {
		for _, p := range procCounts {
			t.Run(fmt.Sprintf("%s/P=%d", wf.name, p), func(t *testing.T) {
				var computes [calls]atomic.Int32
				got := make([][calls]*int, p)
				runShared(t, wf.eng, p, func(c *Comm) error {
					for i := 0; i < calls; i++ {
						before := c.Now()
						v := c.Shared(func() any {
							computes[i].Add(1)
							n := i
							return &n
						}).(*int)
						if c.Now() != before {
							return fmt.Errorf("Shared advanced the clock by %v", c.Now()-before)
						}
						got[c.Rank()][i] = v
						// Real traffic between calls lets ranks drift apart,
						// so a fast rank enters call i+1 while a slow one is
						// still in call i.
						c.Barrier()
					}
					return nil
				})
				for i := 0; i < calls; i++ {
					if n := computes[i].Load(); n != 1 {
						t.Errorf("call %d: compute ran %d times, want 1", i, n)
					}
					for r := range got {
						if got[r][i] != got[0][i] {
							t.Errorf("call %d: rank %d got a different value than rank 0", i, r)
						}
						if *got[r][i] != i {
							t.Errorf("call %d: rank %d got the value of call %d", i, r, *got[r][i])
						}
					}
				}
			})
		}
	}
}

// TestSharedIsolatesCommunicators interleaves Shared calls on the world, a
// Dup of it and its even and odd halves: each communicator must see only its
// own values, whatever order the communicators are used in.
func TestSharedIsolatesCommunicators(t *testing.T) {
	type tagged struct {
		comm string
		call int
	}
	for _, wf := range sharedWorlds {
		t.Run(wf.name, func(t *testing.T) {
			const p = 6
			var computes sync.Map // tagged -> *atomic.Int32
			runShared(t, wf.eng, p, func(c *Comm) error {
				dup := c.Dup()
				half := subComm(c, parity(p, c.Rank()%2), subCtx+c.Rank()%2)
				comms := []struct {
					name string
					c    *Comm
				}{
					{"world", c},
					{"dup", dup},
					{fmt.Sprintf("half%d", c.Rank()%2), half},
				}
				for call := 0; call < 3; call++ {
					// Odd ranks walk the communicators backwards: the
					// order of calls across different communicators is
					// not part of the contract, only the order on each.
					for k := range comms {
						if c.Rank()%2 == 1 {
							k = len(comms) - 1 - k
						}
						cm := comms[k]
						want := tagged{cm.name, call}
						got := cm.c.Shared(func() any {
							n, _ := computes.LoadOrStore(want, new(atomic.Int32))
							n.(*atomic.Int32).Add(1)
							return want
						}).(tagged)
						if got != want {
							return fmt.Errorf("rank %d on %s call %d received %v", c.Rank(), cm.name, call, got)
						}
					}
				}
				if half.Size() != p/2 {
					return fmt.Errorf("half has %d ranks", half.Size())
				}
				return nil
			})
			entries := 0
			computes.Range(func(k, v any) bool {
				entries++
				if n := v.(*atomic.Int32).Load(); n != 1 {
					t.Errorf("%v computed %d times, want 1", k, n)
				}
				return true
			})
			if want := 4 * 3; entries != want { // world, dup, half0, half1 × 3 calls
				t.Errorf("%d distinct computes, want %d", entries, want)
			}
		})
	}
}

// parity returns the ranks below p whose parity is bit, ascending.
func parity(p, bit int) []int {
	var ranks []int
	for r := bit; r < p; r += 2 {
		ranks = append(ranks, r)
	}
	return ranks
}

// TestSharedPanicReachesEveryRank pins the failure mode: a compute that
// panics does so on the rank that ran it, and no other rank is handed a
// half-made value — the run fails with the panic as its cause.
func TestSharedPanicReachesEveryRank(t *testing.T) {
	_, err := Run(Config{Procs: 4, Timeout: 30 * time.Second}, func(c *Comm) error {
		c.Shared(func() any { panic("bad compute") })
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "bad compute") {
		t.Fatalf("run error = %v, want the compute's panic", err)
	}
}

// TestSharedSkippedCallFailsTheRun pins the mismatch diagnostic: a rank that
// skips a Shared call strands the entry its peers made, and Run reports it
// instead of letting the next call on that communicator pair up wrongly.
func TestSharedSkippedCallFailsTheRun(t *testing.T) {
	_, err := Run(Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
		if c.Rank() != 1 {
			c.Shared(func() any { return 0 })
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "not reached by every rank") {
		t.Fatalf("run error = %v, want the stranded-entry diagnostic", err)
	}
}
