package lock

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

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
		r.quit = true
		for owner := range r.waiting {
			r.wake(owner)
		}
	})
}

// own is an owner actor: it executes the acquires posted to it, reporting
// each grant, until the script is over.
func (r *scriptRunner) own(id int) {
	for {
		if r.inbox[id] == nil && !r.quit {
			r.waiting[id] = true
			for r.inbox[id] == nil && !r.quit {
				r.coord.Park(id)
			}
		}
		op := r.inbox[id]
		r.inbox[id] = nil
		if op == nil {
			return
		}
		g := r.tbl.acquire(id, op.e, op.mode, op.earliest)
		r.granted = append(r.granted, wokenGrant{id: op.id, grantAt: g})
	}
}

// wake wakes owner if it is parked waiting for the driver.
func (r *scriptRunner) wake(owner int) {
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
		r.inbox[op.owner] = &op
		r.wake(op.owner)
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
// granted strictly in ticket order.
func TestMassWakeupGrantsInTicketOrder(t *testing.T) {
	const n = 60
	order := massWakeupOrder(t, newTable(), n)
	if len(order) != n {
		t.Fatalf("%d grants, want %d", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("grant order %v not in ticket order at %d", order, i)
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
				massWakeup(b, newTable(), m, Shared,
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
	for _, h := range tbl.locks() {
		if !slices.ContainsFunc(m.granted, func(l modelLock) bool { return l.owner == h.owner && l.e == h.ext && l.mode == h.mode }) {
			t.Errorf("table grants owner %d %v %v, the model does not", h.owner, h.ext, h.mode)
		}
		for _, w := range h.queue.items {
			queued[w.owner]++
			if !h.ext.Overlaps(w.ext) || !blocks(h.owner, h.mode, w.owner, w.mode) {
				t.Errorf("owner %d's %v %v waiter queues behind owner %d's %v %v, which does not block it",
					w.owner, w.ext, w.mode, h.owner, h.ext, h.mode)
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
// spans nested in, abutting and crossing one another, and empty extents;
// drawing from a pool is what makes duplicate extents common.
var handOffExtents = []interval.Extent{
	ext(0, 1000), ext(100, 300), ext(150, 100), ext(250, 300), ext(95, 10),
	ext(0, 100), ext(100, 100), ext(400, 350), ext(700, 300), ext(0, 251),
	{Off: 250, Len: 0}, {Off: 1000, Len: 0},
}

// TestHandOffMatchesBruteForceModel drives random scripts — shared and
// exclusive requests, one owner holding overlapping locks, duplicate, empty,
// nested and crossing extents, releases of locks that are not held —
// through the table on the event loop and requires, after every step, the
// model's grants (set, order and time), counts and release history, and the
// witness invariant.
func TestHandOffMatchesBruteForceModel(t *testing.T) {
	const rounds, nOps = 160, 160
	probes := []interval.Extent{ext(0, 1000), ext(0, 100), ext(120, 60), ext(250, 1), ext(399, 302), ext(990, 40)}
	for round := 0; round < rounds && !t.Failed(); round++ {
		r := rand.New(rand.NewSource(int64(round)))
		tbl := newTable()
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
					t.Errorf("round %d op %+v:\n got %+v\nwant %+v", round, op, got, want)
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

// parkCoord is sim.Solo with a scripted Park: the peer that wakes the
// sleeper runs inside its Park.
type parkCoord struct {
	sim.Solo
	park func()
}

func (c parkCoord) Park(int) { c.park() }

// handOffChain builds the contended chain: owner 0
// holds massExtent with n further overlapping exclusive waiters queued
// behind it. cycle runs one steady-state step: a request with the earliest
// ticket of all queues behind the holder, the holder unlocks (from inside
// the request's Park), and the release grants the request and leaves the n
// waiters queued behind it.
func handOffChain(t testing.TB, n int) (tbl *table, cycle func()) {
	tbl = newTable()
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
// contended chain with n further overlapping waiters. A cycle allocates
// nothing, whatever n is: the queue moves to the new lock whole, in its own
// array, and the new waiter, the granted lock and its index node are the
// ones the last cycle gave back. The count is exact, so one object anywhere
// on the hand-off path — witness, the queue heap, the release history, a
// lock or waiter not recycled — fails it.
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
	if few != 0 || many != 0 {
		t.Errorf("a hand-off cycle allocates %v objects with 16 waiters and %v with 1024, want 0 for both", few, many)
	}
}

// unwindCoord parks by unwinding the caller out of acquire, with a panic
// value that allocates nothing, so the waiter stays queued.
type unwindCoord struct{ sim.Solo }

type unwound struct{}

func (unwindCoord) Park(int) { panic(unwound{}) }

// TestGrantChainAllocatesAmortizedZero runs a whole chain on a fresh table:
// 1024 overlapping exclusive requests queue behind the first holder, then
// each holder releases in turn, granting the next. Locks, waiters and index
// nodes come from the table's slabs and go back to them, so the chain
// allocates a few arrays, not an object per request; a lock or node
// allocated per grant reads 1 or more per request.
func TestGrantChainAllocatesAmortizedZero(t *testing.T) {
	const requests = 1024
	var tbl *table
	chain := func() {
		tbl = newTable()
		tbl.setCoord(unwindCoord{})
		for owner := range requests {
			func() {
				defer func() { _ = recover() }()
				tbl.acquire(owner, massExtent, Exclusive, sim.VTime(owner))
			}()
		}
		for owner := range requests {
			if err := tbl.release(owner, massExtent, sim.VTime(requests+owner)); err != nil {
				t.Fatal(err)
			}
		}
	}
	perRequest := testing.AllocsPerRun(5, chain) / requests
	t.Logf("%.3f objects per request", perRequest)
	if h, w := tbl.holders(), tbl.waiters(); h != 0 || w != 0 {
		t.Errorf("%d held, %d waiting after the chain, want none", h, w)
	}
	if perRequest >= 0.1 {
		t.Errorf("a grant/release chain allocates %.3f objects per request, want < 0.1", perRequest)
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
