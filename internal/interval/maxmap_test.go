package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ext(off, n int64) Extent { return Extent{Off: off, Len: n} }

// max1 drops Max's count of entries read.
func max1(v int64, _ int) int64 { return v }

func TestMaxMapBasic(t *testing.T) {
	var m MaxMap[int64]
	if max1(m.Max(ext(0, 100))) != 0 {
		t.Fatal("empty map should report 0")
	}
	m.Record(ext(10, 10), 100)
	if got := max1(m.Max(ext(0, 100))); got != 100 {
		t.Fatalf("max = %v", got)
	}
	if got := max1(m.Max(ext(0, 10))); got != 0 {
		t.Fatalf("disjoint max = %v", got)
	}
	if got := max1(m.Max(ext(19, 1))); got != 100 {
		t.Fatalf("last byte max = %v", got)
	}
}

func TestMaxMapOverlapTakesMax(t *testing.T) {
	var m MaxMap[int64]
	m.Record(ext(0, 100), 50)
	m.Record(ext(40, 20), 30) // smaller value inside: must not lower
	if got := max1(m.Max(ext(45, 1))); got != 50 {
		t.Fatalf("max = %v, want 50", got)
	}
	m.Record(ext(90, 20), 200)
	if got := max1(m.Max(ext(95, 1))); got != 200 {
		t.Fatalf("max = %v, want 200", got)
	}
	if got := max1(m.Max(ext(0, 10))); got != 50 {
		t.Fatalf("max = %v, want 50", got)
	}
}

func TestMaxMapCoalesces(t *testing.T) {
	var m MaxMap[int64]
	m.Record(ext(0, 10), 7)
	m.Record(ext(10, 10), 7)
	m.Record(ext(20, 10), 7)
	if len(m.entries) != 1 {
		t.Fatalf("entries = %d, want 1 after coalescing: %v", len(m.entries), m.entries)
	}
}

func TestMaxMapQuickAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m MaxMap[int64]
		model := map[int64]int64{}
		for op := 0; op < 40; op++ {
			e := Extent{Off: int64(r.Intn(80)), Len: int64(r.Intn(20))}
			at := int64(r.Intn(1000))
			m.Record(e, at)
			for o := e.Off; o < e.End(); o++ {
				if at > model[o] {
					model[o] = at
				}
			}
			// Check random queries.
			q := Extent{Off: int64(r.Intn(90)), Len: int64(r.Intn(20))}
			var want int64
			for o := q.Off; o < q.End(); o++ {
				if model[o] > want {
					want = model[o]
				}
			}
			got, read := m.Max(q)
			overlapping := 0
			for _, en := range m.entries {
				if en.ext.Overlaps(q) {
					overlapping++
				}
			}
			if got != want || read != overlapping {
				return false
			}
			// Entries stay sorted, disjoint, coalesced.
			for i := 1; i < len(m.entries); i++ {
				prev, cur := m.entries[i-1], m.entries[i]
				if prev.ext.End() > cur.ext.Off {
					return false
				}
				if prev.ext.End() == cur.ext.Off && prev.v == cur.v {
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

// TestMaxMapRecordInPlace: on a warmed map a record that leaves the
// entry count where it was — raising one entry, or changing nothing —
// splices in place and allocates nothing.
func TestMaxMapRecordInPlace(t *testing.T) {
	const n = 1000
	var m MaxMap[int64]
	for i := 0; i < n; i++ {
		m.Record(ext(int64(i)*10, 10), int64(1+i)) // neighbours differ: no coalescing
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		k++
		e := ext(int64(1+k%(n-2))*10, 10)
		m.Record(e, int64(n+k)) // a new maximum, unlike either neighbour's
		m.Record(e, 1)          // older than what is recorded: no change
	})
	if allocs != 0 || len(m.entries) != n {
		t.Errorf("record allocated %v objects per run and left %d entries, want 0 and %d", allocs, len(m.entries), n)
	}
}
