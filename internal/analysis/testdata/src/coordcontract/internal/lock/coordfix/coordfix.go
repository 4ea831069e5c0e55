// Package coordfix is a coordcontract fixture: its virtualized path
// lies under internal/lock, where sim.Coord Wake/Park(locker)
// sites must hold the owning structure's mutex on every path into the
// call.
package coordfix

import (
	"sync"

	"atomio/internal/sim"
)

type table struct {
	mu    sync.Mutex
	coord sim.Coord
	ready bool
}

// wakeUnderLock is the canonical legal shape: Wake under the same
// mutex the sleeper parked under.
func (t *table) wakeUnderLock(id int, at sim.VTime) {
	t.mu.Lock()
	t.ready = true
	t.coord.Wake(id, at)
	t.mu.Unlock()
}

// parkUnderDeferredUnlock mirrors internal/lock's acquire path: the
// deferred unlock runs at exit, so the mutex stays held at the Park
// loop.
func (t *table) parkUnderDeferredUnlock(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.ready {
		t.coord.Park(id, &t.mu)
	}
}

// parkNilAfterUnlock mirrors the sharded table's reserve/park window:
// a nil locker parks after the unlock, legal because the engine runs one
// actor at a time.
func (t *table) parkNilAfterUnlock(id int) {
	t.mu.Lock()
	t.ready = false
	t.mu.Unlock()
	t.coord.Park(id, nil)
}

// wakeBothArmsLocked holds the mutex on every path to the Wake even
// though the arms differ.
func (t *table) wakeBothArmsLocked(id int, at sim.VTime, fast bool) {
	if fast {
		t.mu.Lock()
	} else {
		t.mu.Lock()
		t.ready = true
	}
	t.coord.Wake(id, at)
	t.mu.Unlock()
}

// wakeNoLock omits the mutex entirely.
func (t *table) wakeNoLock(id int, at sim.VTime) {
	t.coord.Wake(id, at) // want "Wake called without the owning structure.s mutex held"
}

// wakeAfterUnlock releases before waking: the PR 9 shape.
func (t *table) wakeAfterUnlock(id int, at sim.VTime) {
	t.mu.Lock()
	t.ready = true
	t.mu.Unlock()
	t.coord.Wake(id, at) // want "Wake called without the owning structure.s mutex held"
}

// wakeOneArmUnlocked unlocks on one branch only: the must-analysis
// intersection join empties the held set at the merge.
func (t *table) wakeOneArmUnlocked(id int, at sim.VTime, bail bool) {
	t.mu.Lock()
	if bail {
		t.mu.Unlock()
	}
	t.coord.Wake(id, at) // want "Wake called without the owning structure.s mutex held"
}

// parkNoLock hands Park a mutex it never took: the coordinator would
// unlock a mutex nobody holds.
func (t *table) parkNoLock(id int) {
	t.coord.Park(id, &t.mu) // want "Park sleeps on t.mu without holding it"
}

type pair struct {
	a, b  sync.Mutex
	coord sim.Coord
	ready bool
}

// parkWrongMutex hands Park a mutex other than the one it holds: the
// coordinator would unlock b while the caller holds only a.
func (p *pair) parkWrongMutex(id int) {
	p.a.Lock()
	defer p.a.Unlock()
	for !p.ready {
		p.coord.Park(id, &p.b) // want "Park sleeps on p.b without holding it"
	}
}

type sharded struct {
	coord sim.Coord
}

func (s *sharded) lockShards(ids []int)   {}
func (s *sharded) unlockShards(ids []int) {}

// wakeUnderHelper acquires through a lock-prefixed helper method, the
// sharded table's idiom: the helper pair is tracked as a pseudo-mutex.
func (s *sharded) wakeUnderHelper(id int, at sim.VTime, ids []int) {
	s.lockShards(ids)
	defer s.unlockShards(ids)
	s.coord.Wake(id, at)
}

// wakeAfterHelperUnlock releases the helper pseudo-mutex first.
func (s *sharded) wakeAfterHelperUnlock(id int, at sim.VTime, ids []int) {
	s.lockShards(ids)
	s.unlockShards(ids)
	s.coord.Wake(id, at) // want "Wake called without the owning structure.s mutex held"
}

// tracer is a forwarding Coord wrapper like obs.CoordTracer: each
// method delegates to the same method on the inner Coord and inherits
// its caller's lock instead of owning one.
type tracer struct {
	inner sim.Coord
}

func (t *tracer) Park(id int, l sync.Locker) { t.inner.Park(id, l) }
func (t *tracer) Wake(id int, at sim.VTime)  { t.inner.Wake(id, at) }
