package lock

// Property tests pinning the index-backed lock table to the pre-index
// linear-scan implementation on randomized grant/release workloads.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// linearBlockers is the pre-index conflict check, counting: scan every
// granted lock. It is the oracle the indexed table is compared against.
func linearBlockers(granted []*held, owner int, e interval.Extent, mode Mode) int64 {
	var n int64
	for _, h := range granted {
		if h.owner == owner {
			continue
		}
		if !h.ext.Overlaps(e) {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			n++
		}
	}
	return n
}

// register grants (owner, e, mode) without a conflict check: grant does
// none, and the table may hold mutually overlapping locks.
func register(tbl *table, owner int, e interval.Extent, mode Mode) {
	tbl.grant(owner, e, mode, 0, tbl.shardIDs(e))
}

// witness is the query acquire decides on.
func witness(tbl *table, owner int, e interval.Extent, mode Mode) *held {
	h, _ := tbl.witness(owner, e, mode, tbl.shardIDs(e))
	return h
}

// TestQuickConflictsMatchesLinearScan drives the table's granted index and
// a mirror slice through random register/release sequences, checking every
// witness query — the one acquire decides on — against the linear oracle:
// nil exactly when it counts no blocker, otherwise a lock that overlaps and
// blocks the request.
func TestQuickConflictsMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randMode := func() Mode {
		if r.Intn(2) == 0 {
			return Shared
		}
		return Exclusive
	}
	for round := 0; round < 30; round++ {
		tbl := newTable(1, 0)
		var mirror []*held
		for op := 0; op < 300; op++ {
			switch {
			case len(mirror) > 0 && r.Intn(3) == 0:
				// Release a random live lock through the real path, which
				// drops the owner's earliest-registered lock on that extent
				// (a duplicate may differ in mode, and counts tell).
				h := mirror[r.Intn(len(mirror))]
				if err := tbl.release(h.owner, h.ext, sim.VTime(op)); err != nil {
					t.Fatalf("release %v: %v", h, err)
				}
				k := slices.IndexFunc(mirror, func(m *held) bool { return m.owner == h.owner && m.ext == h.ext })
				mirror = slices.Delete(mirror, k, k+1)
			default:
				// Register a lock directly, as shared holders or one owner
				// may overlap.
				h := &held{
					owner: r.Intn(6),
					ext:   interval.Extent{Off: int64(r.Intn(400)), Len: int64(r.Intn(40))},
					mode:  randMode(),
				}
				register(tbl, h.owner, h.ext, h.mode)
				mirror = append(mirror, h)
			}
			if got := tbl.holders(); got != len(mirror) {
				t.Fatalf("holders = %d, mirror %d", got, len(mirror))
			}
			// Compare a batch of random queries against the oracle.
			for q := 0; q < 5; q++ {
				owner := r.Intn(6)
				e := interval.Extent{Off: int64(r.Intn(400)), Len: int64(r.Intn(40))}
				mode := randMode()
				got := witness(tbl, owner, e, mode)
				want := linearBlockers(mirror, owner, e, mode)
				if (got == nil) != (want == 0) ||
					got != nil && (!got.ext.Overlaps(e) || !blocks(got.owner, got.mode, owner, mode)) {
					t.Fatalf("witness(owner=%d, %v, %v) = %+v with %d blockers (granted %v)",
						owner, e, mode, got, want, mirror)
				}
			}
		}
	}
}

// TestReleaseUnknownLockErrs keeps the error path intact, including the
// empty-extent lookup that overlap queries cannot see.
func TestReleaseUnknownLockErrs(t *testing.T) {
	tbl := newTable(1, 0)
	if err := tbl.release(0, interval.Extent{Off: 10, Len: 5}, 1); err == nil {
		t.Fatal("release of unheld lock should fail")
	}
	empty := interval.Extent{Off: 7, Len: 0}
	register(tbl, 3, empty, Exclusive)
	if err := tbl.release(3, empty, 1); err != nil {
		t.Fatalf("release of empty-extent lock: %v", err)
	}
	if tbl.holders() != 0 {
		t.Fatal("empty-extent lock not removed")
	}
}

// BenchmarkConflicts measures the table's conflict check with many granted
// locks, indexed versus the linear oracle — the lock-service hot path the
// interval index exists for.
func BenchmarkConflicts(b *testing.B) {
	for _, n := range []int{512, 4096, 65536} {
		tbl := newTable(1, 0)
		var mirror []*held
		for i := 0; i < n; i++ {
			h := &held{owner: i, ext: interval.Extent{Off: int64(i) * 128, Len: 96}, mode: Exclusive}
			register(tbl, h.owner, h.ext, h.mode)
			mirror = append(mirror, h)
		}
		q := interval.Extent{Off: int64(n/2)*128 + 100, Len: 8} // gap: no conflict
		b.Run(fmt.Sprintf("indexed/G%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if witness(tbl, -1, q, Exclusive) != nil {
					b.Fatal("unexpected conflict")
				}
			}
		})
		b.Run(fmt.Sprintf("linear/G%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if linearBlockers(mirror, -1, q, Exclusive) != 0 {
					b.Fatal("unexpected conflict")
				}
			}
		})
	}
}
