package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// deriveWorlds are the ways a world gets its engine: a Config free of one
// (Run brings its own event loop), and an event loop the caller hands over
// together with its coordinator.
var deriveWorlds = []struct {
	name string
	eng  sim.Engine
}{
	{"free", nil},
	{"eventloop", des.New()},
}

// runDerive runs body on procs ranks of the given world flavour. Run fails
// a world that ends with a rendezvous still in flight, so every test here
// also checks that the meetings drain.
func runDerive(t *testing.T, eng sim.Engine, procs int, body RankFunc) {
	t.Helper()
	cfg := Config{Procs: procs, SendOverhead: sim.Microsecond}
	if eng != nil {
		cfg.Engine = eng
		cfg.Coord = eng.NewCoord(procs)
	}
	if _, err := Run(cfg, body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSharedComputesOncePerCall: each allgather's derive runs once, and
// every rank gets back that one shared value, the value of its own call.
func TestSharedComputesOncePerCall(t *testing.T) {
	const calls = 5
	for _, wf := range deriveWorlds {
		for _, p := range procCounts {
			t.Run(fmt.Sprintf("%s/P=%d", wf.name, p), func(t *testing.T) {
				var derives [calls]int
				got := make([][calls]*int, p)
				runDerive(t, wf.eng, p, func(c *Comm) error {
					for i := 0; i < calls; i++ {
						// Ranks enter at different clocks, so a fast rank
						// enters call i+1 while a slow one is still in call i.
						c.Clock().Advance(sim.VTime((c.Rank()*7+i)%5) * sim.Microsecond)
						_, v := AllgatherOf(c, c.Rank(), 8, func([]int) *int {
							derives[i]++
							n := i
							return &n
						})
						got[c.Rank()][i] = v
					}
					return nil
				})
				for i := 0; i < calls; i++ {
					if n := derives[i]; n != 1 {
						t.Errorf("call %d: derive ran %d times, want 1", i, n)
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

// TestSharedDeriveSeesEveryBlock: derive is handed the whole table —
// every rank's block, whichever rank arrives first or last — and that table
// is the one every rank gets back. Without derive a rank gets the zero D.
func TestSharedDeriveSeesEveryBlock(t *testing.T) {
	for _, wf := range deriveWorlds {
		for _, p := range procCounts {
			t.Run(fmt.Sprintf("%s/P=%d", wf.name, p), func(t *testing.T) {
				want := make([]int, p)
				for r := range want {
					want[r] = 10 * (r + 1) // no block is the zero int
				}
				var seen [][]int
				runDerive(t, wf.eng, p, func(c *Comm) error {
					// The highest rank arrives first, rank 0 last.
					c.Clock().Advance(sim.VTime(p-c.Rank()) * sim.Microsecond)
					table, derived := AllgatherOf(c, want[c.Rank()], 8, func(t []int) []int {
						seen = append(seen, t)
						return slices.Clone(t)
					})
					if !slices.Equal(derived, want) {
						return fmt.Errorf("rank %d: derive saw %v, want %v", c.Rank(), derived, want)
					}
					if len(seen) != 1 || &seen[0][0] != &table[0] {
						return fmt.Errorf("rank %d: derive saw another table than the one returned", c.Rank())
					}
					if _, none := AllgatherOf[int, []int](c, 0, 8, nil); none != nil {
						return fmt.Errorf("rank %d: no derive, yet got %v", c.Rank(), none)
					}
					return nil
				})
			})
		}
	}
}

// TestSharedIsolatesCommunicators interleaves derived allgathers on the
// world, a Dup of it and its even and odd halves: each communicator must see
// only its own blocks and shared values.
func TestSharedIsolatesCommunicators(t *testing.T) {
	type tagged struct {
		comm string
		call int
	}
	for _, wf := range deriveWorlds {
		t.Run(wf.name, func(t *testing.T) {
			const p = 6
			derives := map[tagged]int{}
			runDerive(t, wf.eng, p, func(c *Comm) error {
				dup := c.Dup()
				half := subComm(c, parity(p, c.Rank()%2), subCtx+c.Rank()%2)
				comms := []struct {
					name string
					c    *Comm
				}{
					{"world", c},
					{"dup", &dup},
					{fmt.Sprintf("half%d", c.Rank()%2), half},
				}
				for call := 0; call < 3; call++ {
					// Odd ranks call their half first, even ranks last:
					// the order of calls on communicators that share no
					// rank is not part of the contract, only the order on
					// each (world and dup share every rank).
					for k := range comms {
						if c.Rank()%2 == 1 {
							k = (k + len(comms) - 1) % len(comms)
						}
						cm := comms[k]
						want := tagged{cm.name, call}
						_, got := AllgatherOf(cm.c, want, 8, func(blocks []tagged) tagged {
							for _, b := range blocks {
								if b != want {
									return tagged{fmt.Sprintf("mixed %v", blocks), call}
								}
							}
							derives[want]++
							return want
						})
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
			for k, n := range derives {
				if n != 1 {
					t.Errorf("%v derived %d times, want 1", k, n)
				}
			}
			if entries, want := len(derives), 4*3; entries != want { // world, dup, half0, half1 × 3 calls
				t.Errorf("%d distinct derives, want %d", entries, want)
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

// TestSharedPanicReachesEveryRank pins the failure mode: a derive that
// panics does so on the rank that ran it, and no other rank is handed a
// half-made value — the run fails with the panic as its cause.
func TestSharedPanicReachesEveryRank(t *testing.T) {
	_, err := Run(Config{Procs: 4}, func(c *Comm) error {
		AllgatherOf(c, c.Rank(), 8, func([]int) int { panic("bad derive") })
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "bad derive") {
		t.Fatalf("run error = %v, want the derive's panic", err)
	}
}
