package lock

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// ownerTokens is one client's cached token ranges in the per-owner model.
// An owner gets its entry with its first request and keeps it, possibly
// empty, when revoked.
type ownerTokens struct {
	owner int
	toks  interval.List
}

// listDistributed is the token manager as it was before its tokens became
// one run list: each owner keeps its own canonical list, a request unions
// into the requester's list and subtracts from every other list it
// overlaps. Everything but Lock is the embedded manager's.
type listDistributed struct {
	*Distributed
	tokens []ownerTokens // ascending by owner
}

func (d *listDistributed) Lock(owner int, e interval.Extent, mode Mode, at sim.VTime) sim.VTime {
	d.coord.Await(owner, at)
	need := interval.List{e}

	slot, known := slices.BinarySearchFunc(d.tokens, owner,
		func(t ownerTokens, owner int) int { return cmp.Compare(t.owner, owner) })
	if !known {
		d.tokens = slices.Insert(d.tokens, slot, ownerTokens{owner: owner})
	}
	if len(need.Subtract(d.tokens[slot].toks)) == 0 {
		d.localGrants++
		ticket := at + d.cfg.LocalCost
		grant := d.tbl.acquire(owner, e, mode, ticket)
		traceGrant(d.obs, owner, e, mode, at, grant, ticket)
		return grant
	}
	var revoked int
	for i := range d.tokens {
		t := &d.tokens[i]
		if i == slot {
			t.toks = t.toks.Union(need)
		} else if t.toks.Overlaps(need) {
			revoked++
			t.toks = t.toks.Subtract(need)
		}
	}
	d.serverGrants++
	d.revocations += int64(revoked)

	_, served := d.service.Acquire(at+d.cfg.MsgCost, d.cfg.ServiceTime+sim.VTime(revoked)*d.cfg.RevokeCost)
	ret := d.tbl.acquire(owner, e, mode, served) + d.cfg.MsgCost
	if d.obs != nil && revoked > 0 {
		d.obs.Emit(obs.Event{
			T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRevoke,
			Peer: -1, Off: e.Off, Len: e.Len, Aux: int64(revoked),
		})
		d.obs.Count(owner, obs.MetricLockRevokes, int64(revoked))
	}
	traceGrant(d.obs, owner, e, mode, at, ret, served)
	return ret
}

// tokenManager is what the token oracle observes of a manager.
type tokenManager interface {
	Manager
	Stats() (localGrants, serverGrants, revocations int64)
}

// tokenRecord is one token workload's outcome: every owner's grant times, the
// revoke events, and the manager's counters.
type tokenRecord struct {
	grants  [][]sim.VTime
	revokes []obs.Event
	stats   [3]int64
}

// tokenExtents seeds the workloads with nested, adjacent and empty
// extents; drawing from a pool is what makes duplicates common.
var tokenExtents = []interval.Extent{
	ext(0, 1000), ext(100, 300), ext(150, 100), ext(0, 100), ext(100, 100),
	ext(200, 100), ext(300, 200), ext(500, 500), ext(950, 100),
	{Off: 250, Len: 0}, {Off: 1000, Len: 0},
}

// runTokenWorkload runs a seeded Lock/Unlock script on the event loop: each
// owner draws extents from the pool, at random, adjacent to its last one,
// or spanning its last two (which its tokens cover only if they coalesced),
// in either mode, holds each lock a while, and sometimes takes a nested
// lock inside one it holds (in no stronger a mode, so it is granted without
// waiting) before releasing both.
func runTokenWorkload(t *testing.T, m tokenManager, seed int64, owners int) tokenRecord {
	t.Helper()
	rec := obs.NewRecorder(owners, 0)
	m.SetObs(rec)
	out := tokenRecord{grants: make([][]sim.VTime, owners)}
	onEngine(t, owners, m.SetCoord, func(owner int, _ sim.Coord) {
		r := rand.New(rand.NewSource(seed*7919 + int64(owner)))
		now := sim.VTime(r.Intn(100)) * sim.Microsecond
		var last, before interval.Extent
		for i := 0; i < 25; i++ {
			var e interval.Extent
			switch n := int64(1 + r.Intn(200)); r.Intn(4) {
			case 0:
				e = tokenExtents[r.Intn(len(tokenExtents))]
			case 1:
				e = ext(int64(r.Intn(1100)), int64(r.Intn(300)))
			case 2:
				e = ext(last.End(), n)
				if r.Intn(2) == 0 {
					e = ext(max(0, last.Off-n), last.Off-max(0, last.Off-n))
				}
			default:
				e = last.Union(before)
			}
			before, last = last, e
			mode := Mode(r.Intn(2))
			g := m.Lock(owner, e, mode, now)
			out.grants[owner] = append(out.grants[owner], g)
			now = g + sim.VTime(1+r.Intn(40))*sim.Microsecond
			if r.Intn(3) == 0 && e.Len > 1 {
				off := int64(r.Intn(int(e.Len)))
				inner := ext(e.Off+off, 1+int64(r.Intn(int(e.Len-off))))
				g := m.Lock(owner, inner, Shared, now)
				out.grants[owner] = append(out.grants[owner], g)
				now = m.Unlock(owner, inner, g+sim.Microsecond)
			}
			now = m.Unlock(owner, e, now) + sim.VTime(r.Intn(30))*sim.Microsecond
		}
	})
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindLockRevoke {
			out.revokes = append(out.revokes, ev)
		}
	}
	out.stats[0], out.stats[1], out.stats[2] = m.Stats()
	return out
}

// TestTokenRunsMatchPerOwnerLists pins the distributed manager's one
// disjoint run list to the per-owner token lists it replaced, on seeded
// contended scripts over 8 owners and both modes: the same fast
// and server grants and revocations, every grant time, and every revoke
// event with its Aux (the number of holders revoked).
func TestTokenRunsMatchPerOwnerLists(t *testing.T) {
	const owners = 8
	var local, revoked int64
	cfg := DistributedConfig{
		LocalCost: sim.Microsecond, MsgCost: msg, ServiceTime: svc,
		RevokeCost: 3 * sim.Microsecond,
	}
	for seed := int64(0); seed < 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got := runTokenWorkload(t, NewDistributed(cfg), seed, owners)
			want := runTokenWorkload(t, &listDistributed{Distributed: NewDistributed(cfg)}, seed, owners)
			if got.stats != want.stats {
				t.Errorf("Stats() = %v, per-owner lists give %v", got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.grants, want.grants) {
				t.Errorf("grant times diverge\n runs  %v\n lists %v", got.grants, want.grants)
			}
			if !reflect.DeepEqual(got.revokes, want.revokes) {
				t.Errorf("revoke events diverge\n runs  %+v\n lists %+v", got.revokes, want.revokes)
			}
			local += got.stats[0]
			revoked += got.stats[2]
		})
	}
	t.Logf("%d fast-path grants, %d revocations", local, revoked)
	if local == 0 || revoked == 0 {
		t.Errorf("the scripts made %d fast-path grants and %d revocations, want both", local, revoked)
	}
}
