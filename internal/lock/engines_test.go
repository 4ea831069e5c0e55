package lock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// coordManager is a manager that can run under a determinism coordinator
// and expose its grant table for release-history probes.
type coordManager interface {
	Manager
	SetCoord(sim.Coord)
}

// engines returns the engines every blocking test runs on: the event loop,
// and the goroutine reference engine it is pinned to.
func engines() []sim.Engine { return []sim.Engine{des.New(), sim.Goroutines{}} }

// onEngine runs body as actors 0..actors-1 of eng. setCoord hands the run's
// coordinator to the structure under test first; bodies that sequence
// themselves in virtual time (Await) get it too.
func onEngine(t testing.TB, eng sim.Engine, actors int, setCoord func(sim.Coord), body func(id int, coord sim.Coord)) {
	t.Helper()
	coord := eng.NewCoord(actors)
	setCoord(coord)
	err := eng.Run(coord, actors, func(id int) {
		defer coord.Done(id)
		body(id, coord)
	})
	if err != nil {
		t.Fatalf("engine %s: %v", eng.Name(), err)
	}
}

// tableOf reaches the manager's table for relLatest probes.
func tableOf(m Manager) *table {
	switch m := m.(type) {
	case *Central:
		return m.tbl
	case *Distributed:
		return m.tbl
	case *Faulty:
		return tableOf(m.inner)
	default:
		panic(fmt.Sprintf("no grant table on %T", m))
	}
}

// relLatest reports the latest recorded virtual release times of exclusive
// and shared locks over any byte of e (the observable state of the release
// history); the per-shard maxima combine as in grantLocked.
func (t *table) relLatest(e interval.Extent) (excl, shared sim.VTime) {
	ids := t.shardIDs(e)
	t.lockShards(ids)
	defer t.unlockShards(ids)
	for _, id := range ids {
		excl = max(excl, t.shards[id].exclRel.latest(e))
		shared = max(shared, t.shards[id].sharedRel.latest(e))
	}
	return excl, shared
}

// granted returns every granted lock, once however many shards it covers.
func (t *table) granted() []*held {
	t.lockShards(t.ids)
	defer t.unlockShards(t.ids)
	seen := map[*held]bool{}
	var out []*held
	for _, sh := range t.shards {
		sh.granted.All(func(_ interval.Extent, _ index.Handle, h *held) bool {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
			return true
		})
	}
	return out
}

// holders returns the number of currently granted locks.
func (t *table) holders() int { return len(t.granted()) }

// waiters returns the number of blocked requests: the members of every
// granted lock's queues.
func (t *table) waiters() (n int) {
	for _, h := range t.granted() {
		for _, r := range h.reps {
			n += len(r.queue.items)
		}
	}
	return n
}

// engineTrace is everything a workload observes from the lock service: each
// owner's sequence of grant and release times, and the final release
// history over probe extents.
type engineTrace struct {
	Grants    [][]sim.VTime
	Releases  [][]sim.VTime
	ExclRel   []sim.VTime
	SharedRel []sim.VTime
}

// runLockWorkload drives a seeded random lock/unlock workload through the
// manager under the given engine and returns the observed trace. The
// workload is a function of (seed, owner) only, so two engines given the
// same seed contend over identical request streams.
func runLockWorkload(t *testing.T, mk func() coordManager, eng sim.Engine, seed int64, actors int) engineTrace {
	t.Helper()
	mgr := mk()
	tr := engineTrace{
		Grants:   make([][]sim.VTime, actors),
		Releases: make([][]sim.VTime, actors),
	}
	onEngine(t, eng, actors, mgr.SetCoord, func(owner int, _ sim.Coord) {
		rng := rand.New(rand.NewSource(seed + int64(owner)*7919))
		now := sim.VTime(rng.Intn(100))
		for i := 0; i < 20; i++ {
			e := ext(int64(rng.Intn(8)*64), int64(64+rng.Intn(128)))
			mode := Exclusive
			if rng.Intn(3) == 0 {
				mode = Shared
			}
			grant := mgr.Lock(owner, e, mode, now)
			tr.Grants[owner] = append(tr.Grants[owner], grant)
			now = grant + sim.VTime(1+rng.Intn(50))*sim.Microsecond
			rel := mgr.Unlock(owner, e, now)
			tr.Releases[owner] = append(tr.Releases[owner], rel)
			now = rel + sim.VTime(rng.Intn(20))*sim.Microsecond
		}
	})
	tbl := tableOf(mgr)
	if n := tbl.holders(); n != 0 {
		t.Fatalf("engine %s: %d locks still held after the workload", eng.Name(), n)
	}
	for off := int64(0); off < 8*64; off += 64 {
		excl, shared := tbl.relLatest(ext(off, 64))
		tr.ExclRel = append(tr.ExclRel, excl)
		tr.SharedRel = append(tr.SharedRel, shared)
	}
	return tr
}

// TestManagersByteIdenticalAcrossEngines pins the event-loop engine's grant
// times, release times and release history to the goroutine oracle on
// seeded random contended workloads, for every manager flavour and shard
// count.
func TestManagersByteIdenticalAcrossEngines(t *testing.T) {
	flavours := []struct {
		name string
		mk   func() coordManager
	}{
		{"central", func() coordManager { return newCentralForTest() }},
		{"central-sharded", func() coordManager {
			return NewCentral(CentralConfig{MsgCost: msg, ServiceTime: svc, Shards: 4, ShardStripe: 128})
		}},
		{"distributed", func() coordManager {
			return NewDistributed(DistributedConfig{
				LocalCost: sim.Microsecond, MsgCost: msg, ServiceTime: svc,
				RevokeCost: 3 * sim.Microsecond,
			})
		}},
	}
	for _, fl := range flavours {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fl.name, seed), func(t *testing.T) {
				oracle := runLockWorkload(t, fl.mk, sim.Goroutines{}, seed, 8)
				loop := runLockWorkload(t, fl.mk, des.New(), seed, 8)
				if !reflect.DeepEqual(loop.Grants, oracle.Grants) {
					t.Errorf("grant times diverge\n eventloop %v\n goroutine %v", loop.Grants, oracle.Grants)
				}
				if !reflect.DeepEqual(loop.Releases, oracle.Releases) {
					t.Errorf("release times diverge\n eventloop %v\n goroutine %v", loop.Releases, oracle.Releases)
				}
				if !reflect.DeepEqual(loop.ExclRel, oracle.ExclRel) || !reflect.DeepEqual(loop.SharedRel, oracle.SharedRel) {
					t.Errorf("release history diverges\n eventloop %v/%v\n goroutine %v/%v",
						loop.ExclRel, loop.SharedRel, oracle.ExclRel, oracle.SharedRel)
				}
			})
		}
	}
}
