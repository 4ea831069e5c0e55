package lock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// TestWakeHeapPopsInTicketSeqOrder pins the heap to a sort oracle on random
// (ticket, seq) mixes, including heavy ticket ties where seq decides.
func TestWakeHeapPopsInTicketSeqOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		n := r.Intn(200)
		type key struct {
			ticket sim.VTime
			seq    int64
		}
		var want []key
		var h wakeHeap[key]
		for i := 0; i < n; i++ {
			k := key{ticket: sim.VTime(r.Intn(8)), seq: int64(r.Intn(1000))}
			want = append(want, k)
			h.push(k.ticket, k.seq, k)
			// Interleave pops to exercise mixed push/pop orders.
			if r.Intn(4) == 0 && h.len() > 0 {
				got, _ := h.pop()
				// Re-push so the final drain still sees every key.
				h.push(got.ticket, got.seq, got)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].ticket != want[j].ticket {
				return want[i].ticket < want[j].ticket
			}
			return want[i].seq < want[j].seq
		})
		for i, w := range want {
			got, ok := h.pop()
			if !ok {
				t.Fatalf("round %d: heap empty at %d/%d", round, i, n)
			}
			if got != w {
				t.Fatalf("round %d: pop %d = %+v, want %+v", round, i, got, w)
			}
		}
		if _, ok := h.pop(); ok {
			t.Fatalf("round %d: heap not drained", round)
		}
	}
}

// massExtent is the one extent every mass-wakeup actor contends for.
var massExtent = interval.Extent{Off: 0, Len: 100}

// massWakeup runs the cascading mass wakeup the heap exists for on eng:
// actor n takes massExtent exclusively, actors 0..n-1 queue behind it in the given
// mode with ticket(owner), and once all of them are parked actor n calls
// beforeRelease and releases. Each waiter calls granted when its acquire
// returns.
func massWakeup(t testing.TB, eng sim.Engine, tbl grantTable, n int, mode Mode,
	ticket func(owner int) sim.VTime, beforeRelease func(), granted func(owner int)) {
	t.Helper()
	e := massExtent
	onEngine(t, eng, n+1, tbl.setCoord, func(id int, coord sim.Coord) {
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
func massWakeupOrder(t *testing.T, eng sim.Engine, tbl grantTable, n int) []int {
	t.Helper()
	tickets := rand.New(rand.NewSource(int64(n))).Perm(n)
	var mu sync.Mutex
	var order []int
	massWakeup(t, eng, tbl, n, Exclusive,
		func(owner int) sim.VTime { return sim.VTime(1000 + tickets[owner]) },
		func() {
			if w := tbl.waiters(); w != n {
				t.Errorf("%d waiters parked at the release, want %d", w, n)
			}
		},
		func(owner int) {
			mu.Lock()
			order = append(order, tickets[owner])
			at := sim.VTime(2000 + len(order))
			mu.Unlock()
			if err := tbl.release(owner, massExtent, at); err != nil {
				t.Error(err)
			}
		})
	return order
}

// TestMassWakeupGrantsInTicketOrder pins the heap-based release hand-off to
// the table's deterministic contract: overlapping exclusive waiters are
// granted strictly in ticket order, on both the single-mutex table and the
// sharded one (the extent spans several stripes of the 4-shard table).
func TestMassWakeupGrantsInTicketOrder(t *testing.T) {
	const n = 60
	for _, eng := range engines() {
		for name, tbl := range map[string]grantTable{
			"table":   newTable(),
			"sharded": newShardedTable(4, 16),
		} {
			order := massWakeupOrder(t, eng, tbl, n)
			if len(order) != n {
				t.Fatalf("%s/%s: %d grants, want %d", eng.Name(), name, len(order), n)
			}
			for i := 1; i < len(order); i++ {
				if order[i-1] >= order[i] {
					t.Fatalf("%s/%s: grant order %v not in ticket order at %d", eng.Name(), name, order, i)
				}
			}
		}
	}
}

// BenchmarkMassWakeup measures a release fanning out to m shared waiters
// blocked behind one exclusive lock — the mass-wakeup path the (ticket,
// seq) heap makes O(m log m) instead of the old O(m²) candidate rescan —
// and the event loop resuming them.
func BenchmarkMassWakeup(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("waiters=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				massWakeup(b, des.New(), newTable(), m, Shared,
					func(owner int) sim.VTime { return sim.VTime(owner) },
					b.StartTimer, func(int) {})
			}
		})
	}
}
