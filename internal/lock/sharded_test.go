package lock

// Tests pinning the lock table's behaviour to be the same for every shard
// count, on randomized workloads whose spans straddle shard boundaries:
// grant outcomes, grant order, grant times, holder/waiter counts, and the
// observable release history at S > 1 must match the one-shard table's
// exactly.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func TestShardIDs(t *testing.T) {
	st := newTable(4, 100)
	cases := []struct {
		e    interval.Extent
		want []int
	}{
		{ext(0, 50), []int{0}},                        // inside one stripe
		{ext(99, 1), []int{0}},                        // last byte of a stripe
		{ext(99, 2), []int{0, 1}},                     // straddles one boundary
		{ext(150, 200), []int{1, 2, 3}},               // three stripes
		{ext(50, 400), []int{0, 1, 2, 3}},             // exactly wraps into all
		{ext(350, 200), []int{0, 1, 3}},               // wraps mod S, ascending ids
		{ext(450, 60), []int{0, 1}},                   // wrap across stripe 4->5
		{ext(0, 10000), []int{0, 1, 2, 3}},            // covers everything
		{ext(400, 100), []int{0}},                     // stripe 4 maps back to shard 0
		{interval.Extent{Off: 250, Len: 0}, []int{2}}, // empty: home shard only
	}
	for _, c := range cases {
		got := st.shardIDs(c.e)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("shardIDs(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

// TestQuickShardIDsMatchMarkAndCollect pins the arithmetic shard list — a
// window of 0..S-1, a wrapped range, or all of it — to the definition: mark
// the shard of every covered stripe, collect the marks in ascending order.
func TestQuickShardIDsMatchMarkAndCollect(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		s, stripe := 1+r.Intn(9), 1+int64(r.Intn(130))
		e := interval.Extent{Off: int64(r.Intn(4000)) - 2000, Len: int64(r.Intn(int(stripe) * 12))}
		if r.Intn(8) == 0 {
			e.Len = 0
		}
		covered := make([]bool, s)
		covered[shardMod(floorDiv(e.Off, stripe), s)] = true // an empty extent's home shard
		for k := floorDiv(e.Off, stripe); k*stripe < e.End(); k++ {
			covered[shardMod(k, s)] = true
		}
		got, want := newTable(s, stripe).shardIDs(e), ascending(covered)
		if !slices.Equal(got, want) {
			t.Fatalf("S=%d stripe=%d: shardIDs(%v) = %v, want %v", s, stripe, e, got, want)
		}
	}
}

func TestFloorDivShardMod(t *testing.T) {
	if floorDiv(-1, 100) != -1 || floorDiv(-100, 100) != -1 || floorDiv(-101, 100) != -2 {
		t.Error("floorDiv must round toward negative infinity")
	}
	if shardMod(-1, 4) != 3 || shardMod(-4, 4) != 0 || shardMod(7, 4) != 3 {
		t.Error("shardMod must be non-negative")
	}
}

// scriptOp is one step of a recorded lock workload.
type scriptOp struct {
	acquire   bool
	id        int // acquire op id
	owner     int
	e         interval.Extent
	mode      Mode
	earliest  sim.VTime
	releaseOf int // release: the acquire op id whose lock is dropped
	releaseAt sim.VTime
	notHeld   bool // release: owner holds no lock on e; the table must refuse
}

// wokenGrant is one waiter granted by a release, identified by acquire op id.
type wokenGrant struct {
	id      int
	grantAt sim.VTime
}

// wake is one Wake a table issued: the owner it granted and the grant time.
type wake struct {
	owner int
	at    sim.VTime
}

// wakeLog is the run's coordinator as the table under test sees it: it
// records the table's Wakes, whose order is the order a release grants in.
type wakeLog struct {
	sim.Coord
	wakes *[]wake
}

func (l wakeLog) Wake(id int, t sim.VTime) {
	*l.wakes = append(*l.wakes, wake{owner: id, at: t})
	l.Coord.Wake(id, t)
}

// opOutcome is everything observable after one op.
type opOutcome struct {
	granted bool      // acquire: granted immediately
	grantAt sim.VTime // acquire: immediate grant time
	refused bool      // release: the table returned an error
	woken   []wokenGrant
	order   []wake // release: the grants in the order the table made them
	holders int
	waiters int
	excl    []sim.VTime // relLatest probes after the op
	shared  []sim.VTime
}

// scriptOwners is the number of owner actors a script runs over. An owner
// blocked in an acquire is parked and cannot issue another, so a script
// keeps at most one blocked acquire per owner.
const scriptOwners = 12

// settleAt is the virtual time the driver announces when it waits for the
// owners to come to rest: later than anything a script stamps, so every
// owner woken before the announcement is admitted ahead of the driver.
const settleAt = sim.VTime(1) << 50

// scriptRunner applies ops to one table, one at a time, from inside an
// engine run: scriptOwners owner actors execute the acquires — and park in
// the table when they conflict — while one driver actor posts the acquires,
// issues the releases, and after each op lets the owners settle and
// collects the grants they report.
type scriptRunner struct {
	t      *testing.T
	tbl    *table
	coord  sim.Coord
	probes []interval.Extent

	wakes []wake // the table's Wakes since the last release began

	mu      sync.Mutex
	inbox   []*scriptOp  // per owner: the acquire posted to it, if any
	waiting []bool       // per owner: parked until the driver posts
	quit    bool         // the script is over; idle owners return
	granted []wokenGrant // grants reported since the driver last settled
}

// runScript runs drive as the driver of a fresh run over tbl. drive
// must leave no owner blocked in the table when it returns.
func runScript(t *testing.T, tbl *table, probes []interval.Extent, drive func(*scriptRunner)) {
	t.Helper()
	r := &scriptRunner{
		t: t, tbl: tbl, probes: probes,
		inbox: make([]*scriptOp, scriptOwners), waiting: make([]bool, scriptOwners),
	}
	setCoord := func(c sim.Coord) {
		r.coord = c
		tbl.setCoord(wakeLog{Coord: c, wakes: &r.wakes})
	}
	onEngine(t, scriptOwners+1, setCoord, func(id int, _ sim.Coord) {
		if id < scriptOwners {
			r.own(id)
			return
		}
		drive(r)
		r.mu.Lock()
		r.quit = true
		for owner := range r.waiting {
			r.wakeLocked(owner)
		}
		r.mu.Unlock()
	})
}

// own is an owner actor: it executes the acquires posted to it, reporting
// each grant, until the script is over.
func (r *scriptRunner) own(id int) {
	for {
		r.mu.Lock()
		if r.inbox[id] == nil && !r.quit {
			r.waiting[id] = true
			for r.inbox[id] == nil && !r.quit {
				r.coord.Park(id, &r.mu)
			}
		}
		op := r.inbox[id]
		r.inbox[id] = nil
		r.mu.Unlock()
		if op == nil {
			return
		}
		g := r.tbl.acquire(id, op.e, op.mode, op.earliest)
		r.mu.Lock()
		r.granted = append(r.granted, wokenGrant{id: op.id, grantAt: g})
		r.mu.Unlock()
	}
}

// wakeLocked wakes owner if it is parked waiting for the driver. Callers
// hold r.mu.
func (r *scriptRunner) wakeLocked(owner int) {
	if r.waiting[owner] {
		r.waiting[owner] = false
		r.coord.Wake(owner, 0)
	}
}

// settle lets every owner that can run do so until it rests — parked in the
// table, or waiting for its next op — and returns the grants reported
// meanwhile, in op-id order.
func (r *scriptRunner) settle() []wokenGrant {
	r.coord.Await(scriptOwners, settleAt)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.granted
	r.granted = nil
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (r *scriptRunner) outcome(base opOutcome) opOutcome {
	base.holders = r.tbl.holders()
	base.waiters = r.tbl.waiters()
	for _, p := range r.probes {
		e, s := r.tbl.relLatest(p)
		base.excl = append(base.excl, e)
		base.shared = append(base.shared, s)
	}
	return base
}

// apply runs one op from the driver actor and reports what it observably
// did: an acquire either was granted at once or left its owner blocked; a
// release granted some set of blocked acquires.
func (r *scriptRunner) apply(op scriptOp) opOutcome {
	if op.acquire {
		r.mu.Lock()
		r.inbox[op.owner] = &op
		r.wakeLocked(op.owner)
		r.mu.Unlock()
		if got := r.settle(); len(got) == 1 && got[0].id == op.id {
			return r.outcome(opOutcome{granted: true, grantAt: got[0].grantAt})
		} else if len(got) != 0 {
			r.t.Errorf("acquire op %d settled with grants %+v", op.id, got)
		}
		return r.outcome(opOutcome{})
	}
	r.wakes = nil
	err := r.tbl.release(op.owner, op.e, op.releaseAt)
	if (err != nil) != op.notHeld {
		r.t.Errorf("release of op %d (held: %v): %v", op.releaseOf, !op.notHeld, err)
	}
	return r.outcome(opOutcome{refused: err != nil, order: r.wakes, woken: r.settle()})
}

// genScript builds a randomized workload by running it against the oracle
// table, so releases always target currently granted locks. It
// returns the ops, the oracle's outcome per op, and the probe extents used.
func genScript(t *testing.T, r *rand.Rand, oracle *table, nOps int) ([]scriptOp, []opOutcome, []interval.Extent) {
	probes := make([]interval.Extent, 6)
	for i := range probes {
		probes[i] = ext(int64(r.Intn(1600)), int64(r.Intn(500)))
	}

	randExt := func() interval.Extent {
		// Lengths up to ~4 stripes of 100; one op in 12 is empty.
		if r.Intn(12) == 0 {
			return interval.Extent{Off: int64(r.Intn(1600)), Len: 0}
		}
		return ext(int64(r.Intn(1600)), 1+int64(r.Intn(400)))
	}
	randMode := func() Mode {
		if r.Intn(3) == 0 {
			return Shared
		}
		return Exclusive
	}

	type liveLock struct {
		id    int
		owner int
		e     interval.Extent
	}
	var (
		ops      []scriptOp
		outcomes []opOutcome
		live     []liveLock
		blocked  = map[int]scriptOp{}
		busy     [scriptOwners]bool // owner has a blocked acquire
		now      sim.VTime
	)
	runScript(t, oracle, probes, func(run *scriptRunner) {
		apply := func(op scriptOp) {
			ops = append(ops, op)
			out := run.apply(op)
			outcomes = append(outcomes, out)
			if op.acquire {
				if out.granted {
					live = append(live, liveLock{id: op.id, owner: op.owner, e: op.e})
				} else {
					blocked[op.id] = op
					busy[op.owner] = true
				}
			} else {
				for _, w := range out.woken {
					bop := blocked[w.id]
					delete(blocked, w.id)
					busy[bop.owner] = false
					live = append(live, liveLock{id: bop.id, owner: bop.owner, e: bop.e})
				}
			}
		}
		release := func(k int) {
			l := live[k]
			live = append(live[:k], live[k+1:]...)
			now += sim.VTime(1 + r.Intn(50))
			apply(scriptOp{owner: l.owner, e: l.e, releaseOf: l.id, releaseAt: now})
		}

		for i := 0; i < nOps; i++ {
			var idle []int
			for owner, b := range busy {
				if !b {
					idle = append(idle, owner)
				}
			}
			// A blocked acquire conflicts with a live lock, so there is
			// always something to release when no owner is idle.
			if len(live) > 0 && (r.Intn(3) == 0 || len(blocked) > 8 || len(idle) == 0) {
				release(r.Intn(len(live)))
				continue
			}
			now += sim.VTime(r.Intn(20))
			apply(scriptOp{
				acquire: true, id: i, owner: idle[r.Intn(len(idle))],
				e: randExt(), mode: randMode(),
				// Duplicated tickets exercise the seq tie-break.
				earliest: now - sim.VTime(r.Intn(30)),
			})
		}
		// Drain: release everything so no owner stays blocked.
		for len(live) > 0 {
			release(r.Intn(len(live)))
		}
	})
	if len(blocked) != 0 || oracle.waiters() != 0 || oracle.holders() != 0 {
		t.Fatalf("drain left %d blocked, %d waiting, %d held",
			len(blocked), oracle.waiters(), oracle.holders())
	}
	return ops, outcomes, probes
}

// TestShardedMatchesUnshardedOracle replays randomized workloads — spans
// straddling 2-4 shards, wrap-around spans, empty extents, shared and
// exclusive modes, duplicate tickets — recorded on the one-shard table,
// against tables of several shard counts, requiring identical grant
// outcomes, grant times, wake sets, counts, and release history at every
// step.
func TestShardedMatchesUnshardedOracle(t *testing.T) {
	const stripe = 100
	for round := 0; round < 4; round++ {
		r := rand.New(rand.NewSource(int64(1000 + round)))
		ops, want, probes := genScript(t, r, newTable(1, stripe), 150)
		for _, shards := range []int{2, 3, 4, 7, 8} {
			diverged := false
			runScript(t, newTable(shards, stripe), probes, func(run *scriptRunner) {
				// Past the first divergence the replay only keeps
				// going so that every owner is released.
				for i, op := range ops {
					got := run.apply(op)
					if !diverged && fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want[i]) {
						diverged = true
						t.Errorf("round %d S=%d op %d (%+v):\n got %+v\nwant %+v",
							round, shards, i, op, got, want[i])
					}
				}
			})
		}
	}
}

// TestCrossShardSpanBlocksAndGrants is the deterministic cross-shard
// scenario: a span over shards 2..3 conflicts with a span over shards 0..2
// only through their one shared shard, must block, and must inherit the
// holder's virtual release time on grant.
func TestCrossShardSpanBlocksAndGrants(t *testing.T) {
	st := newTable(4, 100)
	runScript(t, st, nil, func(run *scriptRunner) {
		wide := scriptOp{acquire: true, id: 0, owner: 0, e: ext(0, 280), mode: Exclusive, earliest: 5} // shards 0,1,2
		if out := run.apply(wide); !out.granted || out.grantAt != 5 {
			t.Errorf("uncontended grant: %+v, want granted at 5", out)
		}
		span := scriptOp{acquire: true, id: 1, owner: 1, e: ext(250, 150), mode: Exclusive, earliest: 7} // shards 2,3
		if out := run.apply(span); out.granted || out.waiters != 1 {
			t.Errorf("conflicting cross-shard span: %+v, want blocked", out)
		}
		// A span touching only shard 3 sails past the blocked waiter.
		tail := scriptOp{acquire: true, id: 2, owner: 2, e: ext(300, 50), mode: Exclusive, earliest: 3}
		if out := run.apply(tail); !out.granted || out.grantAt != 3 {
			t.Errorf("disjoint shard-3 span: %+v, want granted at 3", out)
		}
		const releaseAt = 1000
		// The waiter [250,400) also overlaps [300,350): it needs both
		// releases.
		if out := run.apply(scriptOp{owner: 0, e: wide.e, releaseAt: releaseAt}); len(out.woken) != 0 {
			t.Errorf("granted %+v while the shard-3 conflict is still held", out.woken)
		}
		out := run.apply(scriptOp{owner: 2, e: tail.e, releaseOf: 2, releaseAt: releaseAt + 500})
		if len(out.woken) != 1 || out.woken[0] != (wokenGrant{id: 1, grantAt: releaseAt + 500}) {
			t.Errorf("cross-shard grant %+v, want op 1 at %d (latest conflicting release)", out.woken, releaseAt+500)
		}
		run.apply(scriptOp{owner: 1, e: span.e, releaseOf: 1, releaseAt: releaseAt + 600})
	})
	if st.holders() != 0 || st.waiters() != 0 {
		t.Fatalf("table not empty: %d held, %d waiting", st.holders(), st.waiters())
	}
}

// TestShardedReleaseUnknownLockErrs is TestReleaseUnknownLockErrs across
// shards, including the empty-extent home-shard walk.
func TestShardedReleaseUnknownLockErrs(t *testing.T) {
	st := newTable(4, 100)
	if err := st.release(0, ext(10, 5), 1); err == nil {
		t.Fatal("release of unheld lock should fail")
	}
	empty := interval.Extent{Off: 250, Len: 0}
	if g := st.acquire(3, empty, Exclusive, 2); g != 2 {
		t.Fatalf("empty-extent grant at %v, want 2", g)
	}
	if err := st.release(3, empty, 3); err != nil {
		t.Fatalf("release of empty-extent lock: %v", err)
	}
	if st.holders() != 0 {
		t.Fatal("empty-extent lock not removed")
	}
}

// BenchmarkShardedAcquireRelease measures lock-service throughput versus
// shard count on a contended multi-stripe workload: goroutines
// acquire/release exclusive spans crossing two 4 KiB stripes in disjoint
// regions, so every operation takes the cross-shard path and all traffic
// lands on the same table. With one shard every operation serializes on one
// mutex and one release-history map; sharding splits both.
func BenchmarkShardedAcquireRelease(b *testing.B) {
	const stripe int64 = 4 << 10
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S%d", shards), func(b *testing.B) {
			tbl := newTable(shards, stripe)
			var owners atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				owner := int(owners.Add(1))
				base := int64(owner) << 20 // private 1 MiB region: 256 stripes
				var k int64
				for pb.Next() {
					e := interval.Extent{Off: base + (k%64)*stripe, Len: stripe + stripe/2}
					g := tbl.acquire(owner, e, Exclusive, sim.VTime(k))
					if err := tbl.release(owner, e, g+1); err != nil {
						b.Fatal(err)
					}
					k++
				}
			})
		})
	}
}

func TestManagerShardsAccessor(t *testing.T) {
	if got := newCentralForTest().Shards(); got != 1 {
		t.Errorf("central Shards() = %d by default, want 1", got)
	}
	c := NewCentral(CentralConfig{MsgCost: msg, ServiceTime: svc, Shards: 4, ShardStripe: 64})
	if got := c.Shards(); got != 4 {
		t.Errorf("central Shards() = %d, want 4", got)
	}
	d := NewDistributed(DistributedConfig{MsgCost: msg, ServiceTime: svc, Shards: 8, ShardStripe: 64})
	if got := d.Shards(); got != 8 {
		t.Errorf("distributed Shards() = %d, want 8", got)
	}
	// The table's constructor is the one clamp: nonsense counts and stripes
	// still build a working one-shard manager.
	for _, m := range []interface {
		Manager
		Shards() int
	}{
		NewCentral(CentralConfig{MsgCost: msg, ServiceTime: svc, Shards: -3, ShardStripe: -1}),
		NewDistributed(DistributedConfig{MsgCost: msg, ServiceTime: svc, Shards: -3, ShardStripe: -1}),
	} {
		if got := m.Shards(); got != 1 {
			t.Errorf("%s with Shards:-3: Shards() = %d, want 1", m.Name(), got)
		}
		if got := tableOf(m).stripe; got != DefaultShardStripe {
			t.Errorf("%s with ShardStripe:-1: stripe = %d, want %d", m.Name(), got, DefaultShardStripe)
		}
		e := ext(DefaultShardStripe-10, 20) // would straddle two shards, if there were two
		g := m.Lock(0, e, Exclusive, 0)
		m.Unlock(0, e, g)
		if n := tableOf(m).holders(); n != 0 {
			t.Errorf("%s with Shards:-3: %d locks held after lock/unlock", m.Name(), n)
		}
	}
}
