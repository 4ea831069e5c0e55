package lock

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// massExtent is the one extent every mass-wakeup actor contends for.
var massExtent = interval.Extent{Off: 0, Len: 100}

// massWakeup runs the cascading mass wakeup: actor n takes
// massExtent exclusively, actors 0..n-1 queue behind it in the given mode
// with ticket(owner), and once all of them are parked actor n calls
// beforeRelease and releases. Each waiter calls granted when its acquire
// returns.
func massWakeup(t testing.TB, tbl *table, n int, mode Mode,
	ticket func(owner int) sim.VTime, beforeRelease func(), granted func(owner int)) {
	t.Helper()
	e := massExtent
	onEngine(t, n+1, tbl.setCoord, func(id int, coord sim.Coord) {
		if id == n {
			// The holder acts at virtual times 0 and 2, the waiters at 1:
			// the engine admits the release only after every waiter parked.
			tbl.acquire(n, e, Exclusive, 0)
			coord.Await(n, 2)
			beforeRelease()
			if err := tbl.release(n, e, 500); err != nil {
				t.Error(err)
			}
			return
		}
		coord.Await(id, 1)
		tbl.acquire(id, e, mode, ticket(id))
		granted(id)
	})
}

// massWakeupOrder blocks n exclusive waiters with shuffled tickets behind
// one held lock, releases it, and returns the order in which the waiters
// were granted as each one releases in turn.
func massWakeupOrder(t *testing.T, tbl *table, n int) []int {
	t.Helper()
	tickets := rand.New(rand.NewSource(int64(n))).Perm(n)
	var order []int
	massWakeup(t, tbl, n, Exclusive,
		func(owner int) sim.VTime { return sim.VTime(1000 + tickets[owner]) },
		func() {
			if w := tbl.waiters(); w != n {
				t.Errorf("%d waiters parked at the release, want %d", w, n)
			}
		},
		func(owner int) {
			order = append(order, tickets[owner])
			at := sim.VTime(2000 + len(order))
			if err := tbl.release(owner, massExtent, at); err != nil {
				t.Error(err)
			}
		})
	return order
}

// TestMassWakeupGrantsInTicketOrder pins the release hand-off to the
// table's deterministic contract: overlapping exclusive waiters are
// granted strictly in ticket order, with one shard and with four (the
// extent spans several stripes of the 4-shard table).
func TestMassWakeupGrantsInTicketOrder(t *testing.T) {
	const n = 60
	for name, tbl := range map[string]*table{
		"S1": newTable(1, 16),
		"S4": newTable(4, 16),
	} {
		order := massWakeupOrder(t, tbl, n)
		if len(order) != n {
			t.Fatalf("%s: %d grants, want %d", name, len(order), n)
		}
		for i := 1; i < len(order); i++ {
			if order[i-1] >= order[i] {
				t.Fatalf("%s: grant order %v not in ticket order at %d", name, order, i)
			}
		}
	}
}

// BenchmarkMassWakeup measures a release fanning out to m shared waiters
// blocked behind one exclusive lock — the mass-wakeup path, where no grant
// blocks the next and every member of the queue is granted in turn — and
// the event loop resuming them.
func BenchmarkMassWakeup(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("waiters=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				massWakeup(b, newTable(1, 0), m, Shared,
					func(owner int) sim.VTime { return sim.VTime(owner) },
					b.StartTimer, func(int) {})
			}
		})
	}
}

// lockModel is the brute-force reference the table's hand-off is pinned to:
// granted locks and waiters in plain slices, a linear conflict scan over
// every granted lock, a rescan of every waiter for the first grantable one
// in (ticket, seq) order after each grant, and a per-byte release history.
// It shares no code and no data structure with the table.
type lockModel struct {
	granted      []modelLock
	waiting      []*modelWaiter
	excl, shared map[int64]sim.VTime // byte -> latest release
	seq          int
}

type modelLock struct {
	id, owner int
	e         interval.Extent
	mode      Mode
}

type modelWaiter struct {
	modelLock
	minStart, ticket sim.VTime
	seq              int
}

func (w *modelWaiter) before(o *modelWaiter) bool {
	return w.ticket < o.ticket || (w.ticket == o.ticket && w.seq < o.seq)
}

func (m *lockModel) blockers(owner int, e interval.Extent, mode Mode) []modelLock {
	var out []modelLock
	for _, l := range m.granted {
		if l.owner != owner && l.e.Overlaps(e) && (l.mode == Exclusive || mode == Exclusive) {
			out = append(out, l)
		}
	}
	return out
}

func latestOver(hist map[int64]sim.VTime, e interval.Extent) (max sim.VTime) {
	for b := e.Off; b < e.End(); b++ {
		if hist[b] > max {
			max = hist[b]
		}
	}
	return max
}

func (m *lockModel) grant(l modelLock, floor sim.VTime) sim.VTime {
	m.granted = append(m.granted, l)
	at := max(floor, latestOver(m.excl, l.e))
	if l.mode == Exclusive {
		at = max(at, latestOver(m.shared, l.e))
	}
	return at
}

// apply runs one op and returns what the table must observably do with it.
func (m *lockModel) apply(op scriptOp) opOutcome {
	var out opOutcome
	if op.acquire {
		l := modelLock{id: op.id, owner: op.owner, e: op.e, mode: op.mode}
		if len(m.blockers(op.owner, op.e, op.mode)) == 0 {
			out.granted, out.grantAt = true, m.grant(l, op.earliest)
		} else {
			m.waiting = append(m.waiting, &modelWaiter{modelLock: l, minStart: op.earliest, ticket: op.earliest, seq: m.seq})
			m.seq++
		}
		return out
	}
	k := slices.IndexFunc(m.granted, func(l modelLock) bool { return l.owner == op.owner && l.e == op.e })
	if k < 0 {
		out.refused = true
		return out
	}
	hist := m.shared
	if m.granted[k].mode == Exclusive {
		hist = m.excl
	}
	m.granted = slices.Delete(m.granted, k, k+1)
	for b := op.e.Off; b < op.e.End(); b++ {
		hist[b] = max(hist[b], op.releaseAt)
	}
	for _, w := range m.waiting {
		if w.e.Overlaps(op.e) {
			w.minStart = max(w.minStart, op.releaseAt)
		}
	}
	for {
		best := -1
		for i, w := range m.waiting {
			if len(m.blockers(w.owner, w.e, w.mode)) != 0 {
				continue
			}
			if best < 0 || w.before(m.waiting[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		w := m.waiting[best]
		m.waiting = slices.Delete(m.waiting, best, best+1)
		at := m.grant(w.modelLock, w.minStart)
		out.order = append(out.order, wake{owner: w.owner, at: at})
		out.woken = append(out.woken, wokenGrant{id: w.id, grantAt: at})
	}
	slices.SortFunc(out.woken, func(a, b wokenGrant) int { return a.id - b.id })
	return out
}

// observe completes an outcome with the model's counts and history probes.
func (m *lockModel) observe(out opOutcome, probes []interval.Extent) opOutcome {
	out.holders, out.waiters = len(m.granted), len(m.waiting)
	for _, p := range probes {
		out.excl = append(out.excl, latestOver(m.excl, p))
		out.shared = append(out.shared, latestOver(m.shared, p))
	}
	return out
}

// checkWitnesses asserts the invariant the hand-off rests on: between
// operations every registered waiter is in exactly one queue, and that
// queue belongs to a currently granted lock — one the model holds — that
// overlaps and blocks the waiter.
func checkWitnesses(t *testing.T, tbl *table, m *lockModel) {
	t.Helper()
	queued := map[int]int{} // owner -> queues; an owner has one blocked request at most
	for _, h := range tbl.granted() {
		if !slices.ContainsFunc(m.granted, func(l modelLock) bool { return l.owner == h.owner && l.e == h.ext && l.mode == h.mode }) {
			t.Errorf("table grants owner %d %v %v, the model does not", h.owner, h.ext, h.mode)
		}
		for _, r := range h.reps {
			for _, w := range r.queue.items {
				queued[w.owner]++
				if !h.ext.Overlaps(w.ext) || !blocks(h.owner, h.mode, w.owner, w.mode) {
					t.Errorf("owner %d's %v %v waiter queues behind owner %d's %v %v, which does not block it",
						w.owner, w.ext, w.mode, h.owner, h.ext, h.mode)
				}
			}
		}
	}
	if n := len(queued); n != len(m.waiting) {
		t.Errorf("%d owners queued, model has %d waiters", n, len(m.waiting))
	}
	for _, w := range m.waiting {
		if queued[w.owner] != 1 {
			t.Errorf("waiter %+v is in %d queues, want 1", w.modelLock, queued[w.owner])
		}
	}
}

// handOffExtents seeds the random scripts with the shapes that matter:
// spans nested in and crossing one another, spans straddling and exactly
// filling the 100-byte stripes, and empty extents; drawing from a pool is
// what makes duplicate extents common.
var handOffExtents = []interval.Extent{
	ext(0, 1000), ext(100, 300), ext(150, 100), ext(250, 300), ext(95, 10),
	ext(0, 100), ext(100, 100), ext(400, 350), ext(700, 300), ext(0, 251),
	{Off: 250, Len: 0}, {Off: 1000, Len: 0},
}

// TestHandOffMatchesBruteForceModel drives random scripts — shared and
// exclusive requests, one owner holding overlapping locks, duplicate, empty,
// nested and crossing extents, releases of locks that are not held —
// through the table at several shard counts on the event loop and requires,
// after every step, the model's grants (set, order and time), counts and
// release history, and the witness invariant.
// TestShardedMatchesUnshardedOracle compares shard counts with each other;
// they run the same hand-off, so this is the test that pins it.
func TestHandOffMatchesBruteForceModel(t *testing.T) {
	const stripe, rounds, nOps = 100, 40, 160
	probes := []interval.Extent{ext(0, 1000), ext(0, 100), ext(120, 60), ext(250, 1), ext(399, 302), ext(990, 40)}
	for _, shards := range []int{1, 2, 4, 7} {
		for round := 0; round < rounds && !t.Failed(); round++ {
			r := rand.New(rand.NewSource(int64(round)))
			tbl := newTable(shards, stripe)
			m := &lockModel{excl: map[int64]sim.VTime{}, shared: map[int64]sim.VTime{}}
			runScript(t, tbl, probes, func(run *scriptRunner) {
				now := sim.VTime(1000)
				step := func(op scriptOp) {
					want := m.observe(m.apply(op), probes)
					got := run.apply(op)
					if t.Failed() {
						return // past the first divergence, only drain
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("S%d round %d op %+v:\n got %+v\nwant %+v", shards, round, op, got, want)
					}
					checkWitnesses(t, tbl, m)
				}
				release := func() {
					// Release times need not rise with real time (virtual
					// clocks are per rank): only then can a late stamp from a
					// lock that was not even blocking decide a grant time.
					l := m.granted[r.Intn(len(m.granted))]
					now += sim.VTime(1 + r.Intn(50))
					step(scriptOp{owner: l.owner, e: l.e, releaseOf: l.id, releaseAt: now - sim.VTime(r.Intn(300))})
				}
				for i := 0; i < nOps && !t.Failed(); i++ {
					var idle []int
					for owner := 0; owner < scriptOwners; owner++ {
						if !slices.ContainsFunc(m.waiting, func(w *modelWaiter) bool { return w.owner == owner }) {
							idle = append(idle, owner)
						}
					}
					e := handOffExtents[r.Intn(len(handOffExtents))]
					if r.Intn(2) == 0 {
						e = ext(int64(r.Intn(1000)), int64(r.Intn(400)))
					}
					switch k := r.Intn(10); {
					case k == 0:
						// Nobody holds exactly this: an unheld extent, or a
						// held or waited-for one under the wrong owner.
						owner := r.Intn(scriptOwners)
						if slices.ContainsFunc(m.granted, func(l modelLock) bool { return l.owner == owner && l.e == e }) {
							continue
						}
						step(scriptOp{owner: owner, e: e, releaseOf: -1, releaseAt: now, notHeld: true})
					case len(m.granted) > 0 && (k < 4 || len(m.waiting) > 8 || len(idle) == 0):
						release()
					default:
						now += sim.VTime(r.Intn(20))
						mode := Exclusive
						if r.Intn(2) == 0 {
							mode = Shared
						}
						// Duplicated tickets exercise the seq tie-break.
						step(scriptOp{acquire: true, id: i, owner: idle[r.Intn(len(idle))], e: e, mode: mode,
							earliest: now - sim.VTime(r.Intn(30))})
					}
				}
				// Drain, so that no owner is left blocked in the table.
				for len(m.granted) > 0 {
					release()
				}
			})
		}
	}
}

// parkCoord is sim.Solo with a scripted Park: the peer that wakes the
// sleeper runs inside its Park.
type parkCoord struct {
	sim.Solo
	park func()
}

func (c parkCoord) Park(int) { c.park() }

// handOffChain builds the contended chain on a one-shard table: owner 0
// holds massExtent with n further overlapping exclusive waiters queued
// behind it. cycle runs one steady-state step: a request with the earliest
// ticket of all queues behind the holder, the holder unlocks (from inside
// the request's Park), and the release grants the request and leaves the n
// waiters queued behind it.
func handOffChain(t testing.TB, n int) (tbl *table, cycle func()) {
	tbl = newTable(1, 0)
	tbl.acquire(0, massExtent, Exclusive, 0)
	for i := 0; i < n; i++ {
		// Solo's Park panics out of acquire, leaving the waiter queued.
		func() {
			defer func() { _ = recover() }()
			tbl.acquire(2+i, massExtent, Exclusive, sim.VTime(1000+i))
		}()
	}
	holder, next, at := 0, 1, sim.VTime(0)
	tbl.setCoord(parkCoord{park: func() {
		at++
		if err := tbl.release(holder, massExtent, at); err != nil {
			t.Error(err)
		}
	}})
	return tbl, func() {
		tbl.acquire(next, massExtent, Exclusive, 0)
		holder, next = next, holder
	}
}

// TestHandOffAllocationIndependentOfWaiters measures one cycle of the
// contended chain with n further overlapping waiters. What a cycle
// allocates is the new waiter, the granted lock and its index node,
// whatever n is: the queue moves to the new lock whole, in its own array.
// The count is exact, so one more object anywhere on the hand-off path —
// witness, the queue heap, the release history — fails it.
func TestHandOffAllocationIndependentOfWaiters(t *testing.T) {
	allocs := func(n int) float64 {
		tbl, cycle := handOffChain(t, n)
		a := testing.AllocsPerRun(50, cycle)
		if h, w := tbl.holders(), tbl.waiters(); h != 1 || w != n {
			t.Errorf("n=%d: %d held, %d waiting after the cycles, want 1 and %d", n, h, w, n)
		}
		return a
	}
	few, many := allocs(16), allocs(1024)
	t.Logf("allocations per cycle: %v with 16 waiters, %v with 1024", few, many)
	if few != 3 || many != 3 {
		t.Errorf("a hand-off cycle allocates %v objects with 16 waiters and %v with 1024, want 3 for both", few, many)
	}
}

// TestHandOffCostIndependentOfWaiters requires a cycle of the contended
// chain behind 4096 waiters to cost less than 4× the cycle behind 16: a
// release pops its queue's least member and moves the rest, so only the
// heap's O(log n) sifts grow with n. A walk of the waiters per hand-off
// costs ~100× here. The best of several timed batches discounts noise.
func TestHandOffCostIndependentOfWaiters(t *testing.T) {
	perCycle := func(n int) time.Duration {
		_, cycle := handOffChain(t, n)
		const cycles = 2000
		best := time.Duration(math.MaxInt64)
		for range 7 {
			start := time.Now()
			for range cycles {
				cycle()
			}
			best = min(best, time.Since(start)/cycles)
		}
		return best
	}
	few, many := perCycle(16), perCycle(4096)
	t.Logf("hand-off cycle: %v behind 16 waiters, %v behind 4096", few, many)
	if many >= 4*few {
		t.Errorf("a hand-off cycle costs %v behind 4096 waiters and %v behind 16, want less than 4×", many, few)
	}
}

// BenchmarkHandOffChain measures one cycle of the contended chain.
func BenchmarkHandOffChain(b *testing.B) {
	for _, n := range []int{16, 4096} {
		b.Run(fmt.Sprintf("waiters=%d", n), func(b *testing.B) {
			_, cycle := handOffChain(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
