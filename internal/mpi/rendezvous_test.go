package mpi

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// loop is the engine every world here runs on; subtests carry its name.
var loop = des.New()

// scheduleCase is one randomized world of TestRendezvousMatchesMessageSchedule:
// four collectives back to back (allgather, barrier, allgather of empty
// blocks, sparse alltoall), each entered with its own per-rank skews.
type scheduleCase struct {
	procs  int
	split  bool // run the collectives on the permuted subset of the world
	cfg    Config
	skews  [4][]sim.VTime
	blocks [][]byte
	seed   int64 // of every rank's alltoall parts
}

// sizes are the message sizes the cases draw from.
var sizes = []int{0, 1, 24, 1000, 64 << 10}

func newScheduleCase(rng *rand.Rand, procs int, split bool) scheduleCase {
	tc := scheduleCase{procs: procs, split: split, blocks: make([][]byte, procs), seed: rng.Int63()}
	tc.cfg = Config{
		Procs:        procs,
		SendOverhead: sim.VTime(rng.Intn(3)) * 700,
		RecvOverhead: sim.VTime(rng.Intn(3)) * 900,
		Net:          sim.LinearCost{Latency: sim.VTime(rng.Intn(4)) * 1100, BytesPerSec: int64(rng.Intn(3)) << 24},
	}
	for i := range tc.skews {
		tc.skews[i] = make([]sim.VTime, procs)
		for r := range tc.skews[i] {
			// A handful of distinct values, so ties are the rule.
			tc.skews[i][r] = sim.VTime(rng.Intn(4)) * 5000
		}
	}
	for r := range tc.blocks {
		n := sizes[rng.Intn(len(sizes))]
		tc.blocks[r] = make([]byte, n)
		rng.Read(tc.blocks[r])
	}
	return tc
}

// parts draws the alltoall parts of rank of a communicator of size ranks:
// about half the peers, the rank itself included at times, and sizes that
// are zero at times too, with the (sender, receiver) pair as Data.
func (tc scheduleCase) parts(rank, size int) []Part {
	rng := rand.New(rand.NewSource(tc.seed + int64(rank)))
	var out []Part
	for peer := range size {
		if rng.Intn(2) == 0 {
			out = append(out, Part{Peer: peer, Size: int64(sizes[rng.Intn(len(sizes))]), Data: [2]int{rank, peer}})
		}
	}
	return out
}

// subset is the group of a split case: every third rank sits out, and the
// rest are ordered by the key 7·rank mod P (ties by rank), which permutes
// them.
func (tc scheduleCase) subset() []int {
	var members []int
	for r := 0; r < tc.procs; r++ {
		if r%3 != 2 {
			members = append(members, r)
		}
	}
	key := func(r int) int { return (r * 7) % tc.procs }
	sort.SliceStable(members, func(i, j int) bool { return key(members[i]) < key(members[j]) })
	return members
}

// mpiEvent is the engine-independent part of one mpi-layer trace event.
type mpiEvent struct {
	T         sim.VTime
	Kind, Tag string
	Peer      int
	Size      int64
}

// scheduleResult is everything a world's collectives are observable by.
type scheduleResult struct {
	exits     [4][]sim.VTime
	tables    [2][][][]byte // the two allgathers' results, by world rank
	delivered [][]Part      // the alltoall's results, by world rank
	events    [][]mpiEvent  // by actor
	counters  map[string]int64
}

// run executes the case with the given Barrier, Allgather and Alltoall.
func (tc scheduleCase) run(t *testing.T, barrier func(*Comm), allgather func(*Comm, []byte) [][]byte, alltoall func(*Comm, []Part) []Part) scheduleResult {
	t.Helper()
	var res scheduleResult
	for i := range res.exits {
		res.exits[i] = make([]sim.VTime, tc.procs)
	}
	for i := range res.tables {
		res.tables[i] = make([][][]byte, tc.procs)
	}
	res.delivered = make([][]Part, tc.procs)
	rec := obs.NewRecorder(tc.procs, 0)
	cfg := tc.cfg
	cfg.Engine, cfg.Obs = loop, rec
	cfg.Coord = obs.Trace(loop.NewCoord(tc.procs), rec)
	_, err := Run(cfg, func(world *Comm) error {
		c, me := world, world.Rank()
		if tc.split {
			if c = subComm(world, tc.subset(), subCtx); c == nil {
				return nil
			}
		}
		c.Clock().Advance(tc.skews[0][me])
		res.tables[0][me] = allgather(c, tc.blocks[me])
		res.exits[0][me] = c.Now()
		c.Clock().Advance(tc.skews[1][me])
		barrier(c)
		res.exits[1][me] = c.Now()
		c.Clock().Advance(tc.skews[2][me])
		res.tables[1][me] = allgather(c, nil)
		res.exits[2][me] = c.Now()
		c.Clock().Advance(tc.skews[3][me])
		res.delivered[me] = alltoall(c, tc.parts(c.Rank(), c.Size()))
		res.exits[3][me] = c.Now()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res.events = make([][]mpiEvent, tc.procs)
	for _, e := range rec.Events() {
		if e.Layer == obs.LayerMPI {
			res.events[e.Actor] = append(res.events[e.Actor], mpiEvent{T: e.T, Kind: e.Kind, Tag: e.Tag, Peer: e.Peer, Size: e.Size})
		}
	}
	res.counters = map[string]int64{}
	for _, name := range []string{obs.MetricMsgs, obs.MetricMsgBytes, obs.MetricMsgsPrefix + "barrier", obs.MetricMsgsPrefix + "allgather", obs.MetricMsgsPrefix + "alltoall"} {
		res.counters[name] = rec.Metrics().Counter(name)
	}
	return res
}

// TestRendezvousMatchesMessageSchedule pins the rendezvous to the message
// loops it replaced: the same exit clocks, the same blocks, the same
// per-actor mpi events and the same message counters — for byte blocks and
// for typed blocks priced at the bytes' length — and pins the counts to
// their formulas.
func TestRendezvousMatchesMessageSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []scheduleCase{newScheduleCase(rng, 12, true), newScheduleCase(rng, 31, true)}
	for p := 1; p <= 33; p++ {
		cases = append(cases, newScheduleCase(rng, p, false))
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("P=%d/split=%v/%s", tc.procs, tc.split, loop.Name()), func(t *testing.T) {
			got := tc.run(t, (*Comm).Barrier, (*Comm).Allgather, (*Comm).Alltoall)
			want := tc.run(t, messageBarrier, messageAllgather, messageAlltoall)
			if !reflect.DeepEqual(got.exits, want.exits) {
				t.Errorf("exit clocks\n got %v\nwant %v", got.exits, want.exits)
			}
			if !reflect.DeepEqual(got.tables, want.tables) {
				t.Error("allgathered blocks differ from the ring's")
			}
			members := tc.subset()
			if !tc.split {
				members = nil
				for r := range tc.procs {
					members = append(members, r)
				}
			}
			for me, world := range members {
				var want []Part
				for from := range members {
					for _, pt := range tc.parts(from, len(members)) {
						if pt.Peer == me {
							want = append(want, Part{Peer: from, Size: pt.Size, Data: [2]int{from, me}})
						}
					}
				}
				if !slices.Equal(got.delivered[world], want) {
					t.Errorf("rank %d received %v, want %v", me, got.delivered[world], want)
				}
			}
			for a := range want.events {
				if !reflect.DeepEqual(got.events[a], want.events[a]) {
					t.Errorf("actor %d: mpi events\n got %v\nwant %v", a, got.events[a], want.events[a])
				}
			}
			if !reflect.DeepEqual(got.counters, want.counters) {
				t.Errorf("counters: got %v, want %v", got.counters, want.counters)
			}
			// A typed block priced at n bytes is timed, traced and counted
			// as a []byte of length n, and arrives as itself.
			typed := tc.run(t, (*Comm).Barrier, func(c *Comm, b []byte) [][]byte {
				for r, block := range AllgatherOf(c, c.Rank(), int64(len(b))) {
					if block != r {
						t.Errorf("rank %d: typed table row %d holds rank %d's block", c.Rank(), r, block)
					}
				}
				return nil
			}, (*Comm).Alltoall)
			if !reflect.DeepEqual(typed.exits, want.exits) {
				t.Errorf("typed allgather: exit clocks\n got %v\nwant %v", typed.exits, want.exits)
			}
			if !reflect.DeepEqual(typed.events, want.events) || !reflect.DeepEqual(typed.counters, want.counters) {
				t.Error("typed allgather: mpi events or counters differ from the ring's over []byte blocks")
			}
			p := int64(tc.procs)
			if tc.split {
				p = int64(len(tc.subset()))
			}
			if n, f := got.counters[obs.MetricMsgsPrefix+"barrier"], p*int64(bits.Len(uint(p-1))); n != f {
				t.Errorf("barrier delivered %d messages, want P*ceil(log2 P) = %d", n, f)
			}
			if n, f := got.counters[obs.MetricMsgsPrefix+"allgather"], 2*p*(p-1); n != f {
				t.Errorf("two allgathers delivered %d messages, want 2*P*(P-1) = %d", n, f)
			}
			if n, f := got.counters[obs.MetricMsgsPrefix+"alltoall"], p*(p-1); n != f {
				t.Errorf("alltoall delivered %d messages, want P*(P-1) = %d", n, f)
			}
		})
	}
}

// TestRendezvousWakesSleepersAtTheirExitClocks pins the wake bound: a rank
// asleep in a collective is re-admitted at its own exit clock, not at the
// solver's.
func TestRendezvousWakesSleepersAtTheirExitClocks(t *testing.T) {
	const p = 6
	rec := obs.NewRecorder(p, 0)
	exits := make([]sim.VTime, p)
	cfg := Config{Procs: p, Engine: loop, Coord: obs.Trace(loop.NewCoord(p), rec),
		SendOverhead: sim.Microsecond, RecvOverhead: 2 * sim.Microsecond,
		Net: sim.LinearCost{Latency: 10 * sim.Microsecond}}
	if _, err := Run(cfg, func(c *Comm) error {
		c.Clock().Advance(sim.VTime(c.Rank()*c.Rank()) * 7 * sim.Microsecond)
		c.Barrier()
		exits[c.Rank()] = c.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wakes := 0
	for _, e := range rec.Events() {
		if e.Layer == obs.LayerSched && e.Kind == obs.KindWake {
			wakes++
			if e.T != exits[e.Actor] {
				t.Errorf("rank %d woken at %v, exits the barrier at %v", e.Actor, e.T, exits[e.Actor])
			}
		}
	}
	if wakes != p-1 {
		t.Errorf("%d wakes, want one per sleeper (%d)", wakes, p-1)
	}
}

// TestAbortUnblocksRanksParkedInACollective: a rank that fails before a
// collective its peers already sleep in surfaces as the root cause at once,
// not as a stall report.
func TestAbortUnblocksRanksParkedInACollective(t *testing.T) {
	collectives := map[string]func(*Comm){
		"barrier":   (*Comm).Barrier,
		"allgather": func(c *Comm) { c.Allgather([]byte{1}) },
		"alltoall":  func(c *Comm) { c.Alltoall([]Part{{Peer: 3, Size: 8}}) },
	}
	for name, collective := range collectives {
		t.Run(name+"/"+loop.Name(), func(t *testing.T) {
			start := time.Now()
			_, err := Run(Config{Procs: 4, Engine: loop}, func(c *Comm) error {
				if c.Rank() == 2 {
					// Admitted after ranks 0, 1 and 3 went to sleep.
					c.Clock().Advance(sim.Millisecond)
					c.send(3, 0, nil)
					return errors.New("root cause")
				}
				collective(c)
				return nil
			})
			var re *RankError
			if !errors.As(err, &re) || re.Rank != 2 || !strings.Contains(err.Error(), "root cause") {
				t.Fatalf("err = %v, want rank 2's own error", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("abort took %v; the parked ranks were not unwound", elapsed)
			}
		})
	}
}

// TestCollectiveSkippedByOneRankFailsTheRun: the ranks that did call the
// collective can never leave it, and the run says which kind of mistake
// that is instead of only listing the stalled actors.
func TestCollectiveSkippedByOneRankFailsTheRun(t *testing.T) {
	_, err := Run(Config{Procs: 3}, func(c *Comm) error {
		if c.Rank() != 1 {
			c.Barrier()
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "1 collectives were not reached by every rank") {
		t.Fatalf("run error = %v, want the stranded-rendezvous diagnostic", err)
	}
}
