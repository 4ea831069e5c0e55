package lock

import (
	"fmt"
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

// onEngine runs body as actors 0..actors-1 of the event loop. setCoord
// hands the run's coordinator to the structure under test first; bodies
// that sequence themselves in virtual time (Await) get it too.
func onEngine(t testing.TB, actors int, setCoord func(sim.Coord), body func(id int, coord sim.Coord)) {
	t.Helper()
	eng := des.New()
	coord := eng.NewCoord(actors)
	setCoord(coord)
	err := eng.Run(coord, actors, func(id int) {
		defer coord.Done(id)
		body(id, coord)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
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
// history).
func (t *table) relLatest(e interval.Extent) (excl, shared sim.VTime) {
	return t.exclRel.latest(e), t.sharedRel.latest(e)
}

// locks returns every granted lock.
func (t *table) locks() []*held {
	var out []*held
	t.granted.All(func(_ interval.Extent, _ index.Handle, h *held) bool {
		out = append(out, h)
		return true
	})
	return out
}

// holders returns the number of currently granted locks.
func (t *table) holders() int { return t.granted.Len() }

// waiters returns the number of blocked requests: the members of every
// granted lock's queue.
func (t *table) waiters() (n int) {
	for _, h := range t.locks() {
		n += len(h.queue.items)
	}
	return n
}
