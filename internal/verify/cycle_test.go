package verify

import (
	"testing"

	"atomio/internal/interval"
	"atomio/internal/pfs"
	"atomio/internal/sim"
)

func TestFindCycleDirect(t *testing.T) {
	after := func(edges map[int][]int32) [][]int32 {
		rows := make([][]int32, 4)
		for u, vs := range edges {
			rows[u] = vs
		}
		return rows
	}
	if c := findCycle(after(map[int][]int32{0: {1}, 1: {2}})); c != nil {
		t.Fatalf("acyclic graph reported cycle %v", c)
	}
	c := findCycle(after(map[int][]int32{0: {1}, 1: {0}}))
	if c == nil {
		t.Fatal("2-cycle missed")
	}
	if c[0] != c[len(c)-1] {
		t.Fatalf("cycle %v does not close", c)
	}
	if findCycle(after(map[int][]int32{0: {1}, 1: {2}, 2: {0}, 3: {0}})) == nil {
		t.Fatal("3-cycle missed")
	}
	if findCycle(nil) != nil {
		t.Fatal("empty graph reported cycle")
	}
}

// put writes the n bytes at off through c.
func put(c *pfs.Client, off, n int64) {
	c.Write(pfs.Batch{Ext: interval.List{{Off: off, Len: n}}})
}

func TestOrderViolationDetectedAcrossAtoms(t *testing.T) {
	// Two atoms, winners imply 0-after-1 AND 1-after-0: individually
	// clean, jointly unserializable. This is the "interleaved at request
	// granularity" failure of the paper's Figure 2 expressed at atom
	// level.
	fs := fsOf(pfs.Config{Servers: 1, StoreData: true})
	clk := sim.NewClock(0)
	c0, _ := fs.Open("f", 0, clk)
	c1, _ := fs.Open("f", 1, clk)
	// Views: both ranks cover [0,10) and [20,30).
	views := []interval.List{
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},
	}
	// Atom 1 won by rank 0, atom 2 won by rank 1.
	put(c1, 0, 10)
	put(c0, 0, 10) // rank 0 last on atom 1
	put(c0, 20, 10)
	put(c1, 20, 10) // rank 1 last on atom 2

	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("atoms should be individually clean: %v", rep.Violations)
	}
	if rep.OrderViolation == nil {
		t.Fatal("unserializable winners not detected")
	}
	if rep.Atomic() {
		t.Fatal("Atomic() must be false on order violation")
	}
	if rep.OrderViolation.Error() == "" {
		t.Fatal("order violation should render")
	}
}

func TestConsistentWinnersAcrossAtomsPass(t *testing.T) {
	// Same two atoms, but rank 1 wins both: serializable as 0 then 1.
	fs := fsOf(pfs.Config{Servers: 1, StoreData: true})
	clk := sim.NewClock(0)
	c0, _ := fs.Open("f", 0, clk)
	c1, _ := fs.Open("f", 1, clk)
	views := []interval.List{
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},
	}
	put(c0, 0, 10)
	put(c0, 20, 10)
	put(c1, 0, 10)
	put(c1, 20, 10)
	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("consistent winners flagged: %+v %v", rep.OrderViolation, rep.Violations)
	}
}
