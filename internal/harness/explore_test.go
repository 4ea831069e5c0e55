package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"atomio/internal/core"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/verify"
)

// The schedule explorer. The event loop admits actions in (virtual time,
// actor id) order, so Run checks one interleaving of a cell, while the
// paper claims atomicity for every legal one. Delay-bounded scheduling
// (Emmi, Qadeer & Rakamarić, POPL 2011) explores the orders a few
// deviations away from the deterministic one: here a delay adds delta to
// one chosen announcement — an actor's k-th Await — so that actor is
// admitted only once no other actor can run. Park and Wake still order
// every hand-off, so each explored order is one some assignment of
// latencies produces. The explorer is an ordinary sim.Engine: the event
// loop behind a wrapping coordinator it unwraps, with no hook in des.

// delta is what a delay adds to an announcement: far beyond the makespan
// of any cell explored here.
const delta = 1000 * sim.Second

// point names one announcement: the k-th Await (from 0) of actor.
type point struct{ actor, k int }

// less orders points by actor, then announcement.
func (p point) less(q point) bool { return p.actor < q.actor || p.actor == q.actor && p.k < q.k }

// explorer is the event loop admitting the announcements in delays delta
// late. NewCoord keeps the coordinator so the run's admission order can be
// read back.
type explorer struct {
	delays []point
	coord  *delayCoord
}

// Name implements sim.Engine.
func (x *explorer) Name() string { return "explorer" }

// NewCoord implements sim.Engine.
func (x *explorer) NewCoord(actors int) sim.Coord {
	x.coord = &delayCoord{Coord: des.New().NewCoord(actors), delays: x.delays, awaits: make([]int, actors)}
	return x.coord
}

// Run implements sim.Engine: the event loop unwraps delayCoord.
func (x *explorer) Run(c sim.Coord, actors int, body func(id int)) error {
	return des.New().Run(c, actors, body)
}

// delayCoord wraps the event loop's coordinator: it delays the chosen
// announcements and records every admission, 2·id for an Await and
// 2·id+1 for a resumed Park (explored cells have fewer than 128 actors).
type delayCoord struct {
	sim.Coord
	delays []point
	awaits []int // announcements so far, per actor
	order  []byte
}

// Unwrap hands des.Engine.Run its own coordinator back.
func (c *delayCoord) Unwrap() sim.Coord { return c.Coord }

// Await implements sim.Coord.
func (c *delayCoord) Await(id int, t sim.VTime) {
	if slices.Contains(c.delays, point{id, c.awaits[id]}) {
		t += delta
	}
	c.awaits[id]++
	c.Coord.Await(id, t)
	c.order = append(c.order, byte(2*id))
}

// Park implements sim.Coord.
func (c *delayCoord) Park(id int) {
	c.Coord.Park(id)
	c.order = append(c.order, byte(2*id+1))
}

// schedule is one explored run of a cell.
type schedule struct {
	delays []point
	res    *Result
	order  string // the admission sequence
	awaits []int  // announcements per actor: the points a further delay can take
}

// runSchedule runs e with the given delays.
func runSchedule(t *testing.T, e Experiment, delays []point) schedule {
	t.Helper()
	x := &explorer{delays: delays}
	res := runUnder(t, e, x)
	return schedule{delays: delays, res: res, order: string(x.coord.order), awaits: x.coord.awaits}
}

// explore runs e under every schedule of at most bound delays, and calls
// check on each schedule whose admission sequence is new. Delay sets are
// enumerated once, as ascending point sequences, and a schedule whose
// sequence was already seen is not extended. It returns the number of runs
// and of distinct admission sequences; the zero-delay schedule is the
// first one checked.
func explore(t *testing.T, e Experiment, bound int, check func(schedule)) (runs, distinct int) {
	t.Helper()
	seen := map[string]bool{}
	visit := func(s schedule) bool {
		runs++
		if seen[s.order] {
			return false
		}
		seen[s.order] = true
		check(s)
		return true
	}
	frontier := []schedule{runSchedule(t, e, nil)}
	visit(frontier[0])
	for depth := 0; depth < bound; depth++ {
		var next []schedule
		for _, s := range frontier {
			for a, n := range s.awaits {
				for k := 0; k < n; k++ {
					p := point{a, k}
					if d := s.delays; len(d) > 0 && !d[len(d)-1].less(p) {
						continue
					}
					if r := runSchedule(t, e, append(slices.Clip(s.delays), p)); visit(r) {
						r.res = nil // keep the frontier small
						next = append(next, r)
					}
				}
			}
		}
		frontier = next
	}
	return runs, len(seen)
}

// seededDelays runs e under n single-delay schedules whose points rng
// draws from the announcements of identity, the zero-delay schedule.
func seededDelays(t *testing.T, e Experiment, identity schedule, rng *rand.Rand, n int) []schedule {
	t.Helper()
	var points []point
	for a, k := range identity.awaits {
		for i := 0; i < k; i++ {
			points = append(points, point{a, i})
		}
	}
	out := make([]schedule, n)
	for i := range out {
		out[i] = runSchedule(t, e, []point{points[rng.Intn(len(points))]})
	}
	return out
}

// deterministicPolicy reports whether the strategy decides every overlapped
// byte's winner by rule rather than by arrival: coloring by color order,
// ordering and two-phase by highest rank. Such a strategy must give one
// outcome under every schedule.
func deterministicPolicy(s core.Strategy) bool {
	switch s.Name() {
	case "coloring", "ordering", "twophase":
		return true
	}
	return false
}

// sameResult fails on any difference in virtual output between two runs of
// one cell: per-rank clocks, makespan, I/O time, written volume, bandwidth,
// per-server stats, the atomicity report, verdict and replay set.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.RankTimes, want.RankTimes) {
		t.Errorf("per-rank clocks diverge\n got %v\nwant %v", got.RankTimes, want.RankTimes)
	}
	if got.Makespan != want.Makespan || got.IOTime != want.IOTime {
		t.Errorf("makespan/I/O time diverge: got %v/%v, want %v/%v", got.Makespan, got.IOTime, want.Makespan, want.IOTime)
	}
	if got.WrittenBytes != want.WrittenBytes || got.BandwidthMBs != want.BandwidthMBs {
		t.Errorf("volume/bandwidth diverge: got %d/%v, want %d/%v", got.WrittenBytes, got.BandwidthMBs, want.WrittenBytes, want.BandwidthMBs)
	}
	if !reflect.DeepEqual(got.ServerStats, want.ServerStats) {
		t.Errorf("server stats diverge\n got %+v\nwant %+v", got.ServerStats, want.ServerStats)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("atomicity report diverges\n got %+v\nwant %+v", got.Report, want.Report)
	}
	if got.Verdict != want.Verdict || !reflect.DeepEqual(got.Replayed, want.Replayed) {
		t.Errorf("verdict/replay diverge: got %q %v, want %q %v", got.Verdict, got.Replayed, want.Verdict, want.Replayed)
	}
}

// pinIdentity runs e under the explorer with no delay and under Run, fails
// on any difference, and returns both.
func pinIdentity(t *testing.T, e Experiment) (identity schedule, want *Result) {
	t.Helper()
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	identity = runSchedule(t, e, nil)
	sameResult(t, identity.res, want)
	return identity, want
}

// TestExploreStrategies is the paper's claim over the schedule space at
// small scope: every strategy × {column, row} on IBM SP, P ∈ {2, 3}, two
// servers, under every schedule of at most two delays. Every schedule is
// serializable; the strategies that pick winners by rule give one outcome
// per cell; the zero-delay schedule is Run's.
func TestExploreStrategies(t *testing.T) {
	strategies := []core.Strategy{core.Locking{}, core.Coloring{}, core.RankOrder{}, core.TwoPhase{}, core.ListIO{}}
	for _, p := range []int{2, 3} {
		for _, strat := range strategies {
			for _, pattern := range []Pattern{ColumnWise, RowWise} {
				e := Experiment{
					Platform: platform.IBMSP(), M: 12, N: 24, Procs: p, Overlap: 2,
					Pattern: pattern, Strategy: strat, Servers: 2, Verify: true,
				}
				t.Run(fmt.Sprintf("P=%d/%s/%s", p, strat.Name(), pattern), func(t *testing.T) {
					t.Parallel()
					want, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					// The views fix a cell's atoms, so a report's Outcome, which
					// hashes the winners, tells its schedules' outcomes apart.
					outcomes := map[uint64]bool{}
					runs, distinct := explore(t, e, 2, func(s schedule) {
						if s.delays == nil {
							sameResult(t, s.res, want)
						}
						if s.res.Verdict != verify.Serializable {
							t.Errorf("delays %v: verdict %q (report %+v)", s.delays, s.res.Verdict, s.res.Report)
						}
						outcomes[s.res.Report.Outcome] = true
					})
					t.Logf("%d runs, %d distinct admission orders, %d outcomes", runs, distinct, len(outcomes))
					if p == 3 && distinct < 20 {
						t.Errorf("only %d distinct admission orders; the explorer barely moved the schedule", distinct)
					}
					if deterministicPolicy(strat) && len(outcomes) != 1 {
						t.Errorf("%d outcomes, want the one the strategy's rule fixes", len(outcomes))
					}
				})
			}
		}
	}
}

// TestExploreFaults carries the fault axis over the schedule space: every
// builtin fault script, with recovery on, under every single-delay
// schedule of locking, two-phase and coloring at P=3. The verdict never
// tears and never depends on the schedule.
func TestExploreFaults(t *testing.T) {
	for _, script := range builtinScripts() {
		for _, strategy := range []string{"locking", "twophase", "coloring"} {
			e := faultExperiment(strategy)
			e.Procs, e.N = 3, 384
			e.Faults, e.Recovery = &script, true
			t.Run(script.Name+"/"+strategy, func(t *testing.T) {
				t.Parallel()
				var identity *Result
				runs, distinct := explore(t, e, 1, func(s schedule) {
					if identity == nil {
						identity = s.res
					}
					if s.res.Verdict == verify.Torn || s.res.Verdict != identity.Verdict {
						t.Errorf("delays %v: verdict %q, the zero-delay schedule's is %q", s.delays, s.res.Verdict, identity.Verdict)
					}
				})
				t.Logf("%d runs, %d distinct admission orders, verdict %q", runs, distinct, identity.Verdict)
			})
		}
	}
}
