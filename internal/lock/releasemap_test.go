package lock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func TestReleaseMapBasic(t *testing.T) {
	var m releaseMap
	if m.latest(ext(0, 100)) != 0 {
		t.Fatal("empty map should report 0")
	}
	m.record(ext(10, 10), 100)
	if got := m.latest(ext(0, 100)); got != 100 {
		t.Fatalf("latest = %v", got)
	}
	if got := m.latest(ext(0, 10)); got != 0 {
		t.Fatalf("disjoint latest = %v", got)
	}
	if got := m.latest(ext(19, 1)); got != 100 {
		t.Fatalf("last byte latest = %v", got)
	}
}

func TestReleaseMapOverlapTakesMax(t *testing.T) {
	var m releaseMap
	m.record(ext(0, 100), 50)
	m.record(ext(40, 20), 30) // older release inside: must not lower
	if got := m.latest(ext(45, 1)); got != 50 {
		t.Fatalf("latest = %v, want 50", got)
	}
	m.record(ext(90, 20), 200)
	if got := m.latest(ext(95, 1)); got != 200 {
		t.Fatalf("latest = %v, want 200", got)
	}
	if got := m.latest(ext(0, 10)); got != 50 {
		t.Fatalf("latest = %v, want 50", got)
	}
}

func TestReleaseMapCoalesces(t *testing.T) {
	var m releaseMap
	m.record(ext(0, 10), 7)
	m.record(ext(10, 10), 7)
	m.record(ext(20, 10), 7)
	if len(m.entries) != 1 {
		t.Fatalf("entries = %d, want 1 after coalescing: %v", len(m.entries), m.entries)
	}
}

func TestReleaseMapQuickAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m releaseMap
		model := map[int64]sim.VTime{}
		for op := 0; op < 40; op++ {
			e := interval.Extent{Off: int64(r.Intn(80)), Len: int64(r.Intn(20))}
			at := sim.VTime(r.Intn(1000))
			m.record(e, at)
			for o := e.Off; o < e.End(); o++ {
				if at > model[o] {
					model[o] = at
				}
			}
			// Check random queries.
			q := interval.Extent{Off: int64(r.Intn(90)), Len: int64(r.Intn(20))}
			var want sim.VTime
			for o := q.Off; o < q.End(); o++ {
				if model[o] > want {
					want = model[o]
				}
			}
			if m.latest(q) != want {
				return false
			}
			// Entries stay sorted, disjoint, coalesced.
			for i := 1; i < len(m.entries); i++ {
				prev, cur := m.entries[i-1], m.entries[i]
				if prev.ext.End() > cur.ext.Off {
					return false
				}
				if prev.ext.End() == cur.ext.Off && prev.at == cur.at {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableSerializesAcrossRealTimeGaps(t *testing.T) {
	// The regression behind releaseMap: a lock acquired long after a
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
	tbl := newTable(1, 0)
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

// TestReleaseMapRecordInPlace: on a warmed map a record that leaves the
// entry count where it was — raising one entry, or changing nothing —
// splices in place and allocates nothing.
func TestReleaseMapRecordInPlace(t *testing.T) {
	const n = 1000
	var m releaseMap
	for i := 0; i < n; i++ {
		m.record(ext(int64(i)*10, 10), sim.VTime(1+i)) // neighbours differ: no coalescing
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		k++
		e := ext(int64(1+k%(n-2))*10, 10)
		m.record(e, sim.VTime(n+k)) // a new maximum, unlike either neighbour's
		m.record(e, 1)              // older than what is recorded: no change
	})
	if allocs != 0 || len(m.entries) != n {
		t.Errorf("record allocated %v objects per run and left %d entries, want 0 and %d", allocs, len(m.entries), n)
	}
}
