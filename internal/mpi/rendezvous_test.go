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
// are zero at times too.
func (tc scheduleCase) parts(rank, size int) []Part {
	rng := rand.New(rand.NewSource(tc.seed + int64(rank)))
	var out []Part
	for peer := range size {
		if rng.Intn(2) == 0 {
			out = append(out, Part{Peer: peer, Size: int64(sizes[rng.Intn(len(sizes))])})
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

// collectiveKinds are the Tags of a case's four collectives, in call order.
var collectiveKinds = [4]string{obs.TagAllgather, "barrier", obs.TagAllgather, "alltoall"}

// scheduleResult is everything a world's collectives are observable by.
type scheduleResult struct {
	entries, exits [4][]sim.VTime
	tables         [2][][][]byte // the two allgathers' results, by world rank
	delivered      [][]Part      // the alltoall's results, by world rank
	mpi            [][]obs.Event // every mpi event, by actor
	recvd          [4][]int64    // bytes received in each collective, by world rank (oracle runs)
	counters       map[string]int64
}

// run executes the case with the given Barrier, Allgather and Alltoall.
// Message loops pass the tally they count into, and the result's counters
// and received bytes are the tally's; otherwise they are the recorder's.
func (tc scheduleCase) run(t *testing.T, tl *tally, barrier func(*Comm), allgather func(*Comm, []byte) [][]byte, alltoall func(*Comm, []Part) []Part) scheduleResult {
	t.Helper()
	var res scheduleResult
	for i := range res.exits {
		res.entries[i], res.exits[i], res.recvd[i] = make([]sim.VTime, tc.procs), make([]sim.VTime, tc.procs), make([]int64, tc.procs)
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
		for i, call := range [4]func(){
			func() { res.tables[0][me] = allgather(c, tc.blocks[me]) },
			func() { barrier(c) },
			func() { res.tables[1][me] = allgather(c, nil) },
			func() { res.delivered[me] = alltoall(c, tc.parts(c.Rank(), c.Size())) },
		} {
			c.Clock().Advance(tc.skews[i][me])
			res.entries[i][me] = c.Now()
			call()
			res.exits[i][me] = c.Now()
			if tl != nil {
				res.recvd[i][me], tl.bytes[me] = tl.bytes[me], 0
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res.mpi = make([][]obs.Event, tc.procs)
	for _, e := range rec.Events() {
		if e.Layer == obs.LayerMPI {
			res.mpi[e.Actor] = append(res.mpi[e.Actor], e)
		}
	}
	res.counters = map[string]int64{}
	for _, name := range []string{obs.MetricMsgs, obs.MetricMsgBytes, obs.MetricMsgsPrefix + "barrier", obs.MetricMsgsPrefix + obs.TagAllgather, obs.MetricMsgsPrefix + "alltoall"} {
		if res.counters[name] = rec.Metrics().Counter(name); tl != nil {
			res.counters[name] = tl.counters[name]
		}
	}
	return res
}

// TestRendezvousMatchesMessageSchedule pins the rendezvous to the message
// loops it replaced: the same exit clocks, the same blocks and the same
// message counters — for byte blocks and for typed blocks priced at the
// bytes' length, with a value derived from them — and pins the counts to
// their formulas. Each rank traces
// a collective as one mpi.coll event, from its clock at the call to its
// exit, sized by the bytes the loop's messages brought it.
func TestRendezvousMatchesMessageSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []scheduleCase{newScheduleCase(rng, 12, true), newScheduleCase(rng, 31, true)}
	for p := 1; p <= 33; p++ {
		cases = append(cases, newScheduleCase(rng, p, false))
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("P=%d/split=%v/%s", tc.procs, tc.split, loop.Name()), func(t *testing.T) {
			got := tc.run(t, nil, (*Comm).Barrier, (*Comm).Allgather, (*Comm).Alltoall)
			tl := newTally(tc.procs)
			want := tc.run(t, tl, func(c *Comm) { messageBarrier(c, tl) },
				func(c *Comm, b []byte) [][]byte { return messageAllgather(c, tl, b) },
				func(c *Comm, parts []Part) []Part { return messageAlltoall(c, tl, parts) })
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
							want = append(want, Part{Peer: from, Size: pt.Size})
						}
					}
				}
				if !slices.Equal(got.delivered[world], want) {
					t.Errorf("rank %d received %v, want %v", me, got.delivered[world], want)
				}
			}
			var calls [4]int64 // each collective's Aux, as its first rank traced it
			for i, world := range members {
				events := got.mpi[world]
				if len(events) != len(collectiveKinds) {
					t.Fatalf("actor %d traced %d mpi events, want one per collective: %v", world, len(events), events)
				}
				for k, e := range events {
					if i == 0 {
						calls[k] = e.Aux
					}
					if e.Kind != obs.KindColl || e.Tag != collectiveKinds[k] || e.Peer != -1 || e.Aux != calls[k] {
						t.Errorf("actor %d, collective %d: %s.%s:%s peer %d call %d, want coll:%s peer -1 call %d",
							world, k, e.Layer, e.Kind, e.Tag, e.Peer, e.Aux, collectiveKinds[k], calls[k])
					}
					if e.T != want.entries[k][world] || e.T+e.Dur != want.exits[k][world] || e.Size != want.recvd[k][world] {
						t.Errorf("actor %d, collective %d: [%v, %v] size %d, the loop's [%v, %v] size %d", world, k,
							e.T, e.T+e.Dur, e.Size, want.entries[k][world], want.exits[k][world], want.recvd[k][world])
					}
				}
			}
			if n := len(slices.Compact(slices.Sorted(slices.Values(calls[:])))); n != len(calls) {
				t.Errorf("collectives share instances: %v", calls)
			}
			if !reflect.DeepEqual(got.counters, want.counters) {
				t.Errorf("counters: got %v, want %v", got.counters, want.counters)
			}
			// A typed block priced at n bytes is timed, traced and counted
			// as a []byte of length n, and arrives as itself; deriving a
			// value from the table, here the sum of its blocks, changes
			// none of that.
			typed := tc.run(t, nil, (*Comm).Barrier, func(c *Comm, b []byte) [][]byte {
				table, sum := AllgatherOf(c, c.Rank(), int64(len(b)), func(blocks []int) (sum int) {
					for _, r := range blocks {
						sum += r
					}
					return sum
				})
				for r, block := range table {
					if block != r {
						t.Errorf("rank %d: typed table row %d holds rank %d's block", c.Rank(), r, block)
					}
				}
				if p := c.Size(); sum != p*(p-1)/2 {
					t.Errorf("rank %d: derived sum %d, want %d", c.Rank(), sum, p*(p-1)/2)
				}
				return nil
			}, (*Comm).Alltoall)
			if !reflect.DeepEqual(typed.exits, want.exits) {
				t.Errorf("typed allgather: exit clocks\n got %v\nwant %v", typed.exits, want.exits)
			}
			if !reflect.DeepEqual(typed.mpi, got.mpi) || !reflect.DeepEqual(typed.counters, want.counters) {
				t.Error("typed allgather: mpi events or counters differ from the ring's over []byte blocks")
			}
			p := int64(len(members))
			if n, f := got.counters[obs.MetricMsgsPrefix+"barrier"], p*int64(bits.Len(uint(p-1))); n != f {
				t.Errorf("barrier delivered %d messages, want P*ceil(log2 P) = %d", n, f)
			}
			if n, f := got.counters[obs.MetricMsgsPrefix+obs.TagAllgather], 2*p*(p-1); n != f {
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
	parks := 0
	for _, e := range rec.Events() {
		if e.Layer == obs.LayerSched && e.Kind == obs.KindPark {
			parks++
			if woken := e.T + e.Dur; woken != exits[e.Actor] {
				t.Errorf("rank %d woken at %v, exits the barrier at %v", e.Actor, woken, exits[e.Actor])
			}
		}
	}
	if parks != p-1 {
		t.Errorf("%d parks, want one per sleeper (%d)", parks, p-1)
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
