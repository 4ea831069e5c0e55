package lock

import (
	"testing"

	"atomio/internal/sim"
)

func TestTableSerializesAcrossRealTimeGaps(t *testing.T) {
	// The regression behind the release history: a lock acquired long after a
	// conflicting lock was released in *real* time must still start after
	// it in *virtual* time.
	c := newCentralForTest()
	g0 := c.Lock(0, ext(0, 100), Exclusive, 0)
	c.Unlock(0, ext(0, 100), g0+sim.Second) // released at virtual ~1s
	// Much later in real time, rank 1 asks for an overlapping range with
	// an early virtual timestamp.
	g1 := c.Lock(1, ext(50, 10), Exclusive, 0)
	if g1 < g0+sim.Second {
		t.Fatalf("grant %v ignores past virtual release %v", g1, g0+sim.Second)
	}
	c.Unlock(1, ext(50, 10), g1)
}

func TestTableRangeHistoryIsPerRange(t *testing.T) {
	// At the conflict-table level (below the manager's FCFS service
	// queue), only overlapping history delays a grant.
	tbl := newTable()
	tbl.acquire(0, ext(0, 100), Exclusive, 0)
	if err := tbl.release(0, ext(0, 100), sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := tbl.acquire(1, ext(50, 10), Exclusive, 0); got < sim.Second {
		t.Fatalf("overlapping grant %v ignores history", got)
	}
	if got := tbl.acquire(2, ext(200, 10), Exclusive, 0); got >= sim.Second {
		t.Fatalf("disjoint grant %v delayed by unrelated history", got)
	}
	if err := tbl.release(1, ext(50, 10), 2*sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.release(2, ext(200, 10), 2*sim.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSharedAfterSharedNotSerialized(t *testing.T) {
	c := newCentralForTest()
	g0 := c.Lock(0, ext(0, 100), Shared, 0)
	rel := g0 + sim.Second
	c.Unlock(0, ext(0, 100), rel)
	// A later shared lock need not serialize after the shared release: it
	// is granted promptly after its own request overheads...
	g1 := c.Lock(1, ext(0, 100), Shared, rel)
	if g1 >= rel+sim.Millisecond {
		t.Fatalf("shared-after-shared serialized: %v", g1)
	}
	c.Unlock(1, ext(0, 100), g1)
	// ...but an exclusive lock issued before the shared release time must
	// still land after it.
	g2 := c.Lock(2, ext(0, 100), Exclusive, 0)
	if g2 < rel {
		t.Fatalf("exclusive-after-shared not serialized: %v", g2)
	}
	c.Unlock(2, ext(0, 100), g2)
}
