package lock

import (
	"fmt"
	"sync"
	"sync/atomic"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// DefaultShardStripe is the offset-stripe width used to route lock requests
// to shards when a config does not set one.
const DefaultShardStripe int64 = 64 << 10

// shardedTable partitions the byte-range lock table across S independently
// locked shards by offset stripe: byte b belongs to shard (b/stripe) mod S,
// and each shard owns its own interval index of granted locks, its own
// waiter index, and its own slice of the release history. Requests touch
// only the shards their extent covers, so non-overlapping traffic to
// different stripes never contends on a shared mutex and every per-shard
// structure stays a factor of S smaller than the single table's.
//
// A span covering several stripes is a cross-shard lock. Its extent is
// replicated into every covered shard's index (two overlapping extents
// always share a covered shard — the shard of any common byte — so
// per-shard overlap queries answer exactly the global conflict question,
// with the index's extent test filtering same-shard non-overlaps). Shard
// mutexes are always acquired in ascending shard order and released in
// reverse — the two-phase reserve/commit protocol that makes cross-shard
// operations deadlock-free: reserve = take every covered shard's mutex in
// order, commit = install the grant (or waiter) on all of them, then
// unwind.
//
// Grant decisions stay global: waiters carry a table-wide (ticket, seq)
// pair and a release grants eligible waiters in that order, through the
// single-mutex table's hand-off (readyList). A release must therefore hold
// not only the freed range's shards but every shard covered by a candidate
// waiter; the candidate set is only discoverable under lock, so the
// release grows its lock set to a fixpoint, dropping all mutexes before
// re-acquiring the larger ascending set (still deadlock-free, and at most
// S rounds since the set only grows). A waiter's blocker count is kept per
// replica visit: an overlapping lock and waiter meet once in every shard
// both cover — when either registers and when the lock is released — so
// the count rises and falls by the same amount and is zero exactly when no
// granted lock blocks the waiter. Virtual timing is invariant in the shard
// count: grant times are computed from the same conflict sets and release
// history as the single table, so a gated simulation produces
// byte-identical output for any S.
type shardedTable struct {
	stripe int64
	shards []*lockShard
	coord  sim.Coord

	seqMu   sync.Mutex
	nextSeq int64

	nHeld    atomic.Int64 // logical granted locks (replicas counted once)
	nWaiting atomic.Int64 // registered waiters
}

// lockShard is one offset-stripe partition: the granted and waiting extents
// covering the shard's stripes, the shard's slice of the release history,
// and the scratch of the releases whose freed range starts in this shard.
// All fields are guarded by mu.
type lockShard struct {
	mu        sync.Mutex
	granted   index.Index[*sheld]
	waiting   index.Index[*swaiter]
	ready     readyList[*swaiter]
	exclRel   releaseMap
	sharedRel releaseMap
}

// sheld is one granted lock as the sharded table stores it: the logical
// lock plus the per-shard handles of its replicas.
type sheld struct {
	owner   int
	ext     interval.Extent
	mode    Mode
	shards  []int          // covered shard ids, ascending
	handles []index.Handle // replica handle per covered shard
}

// swaiter is one blocked request. grantAt is stamped by the releaser, under
// every shard mutex the waiter's extent covers, before it Wakes the owner.
// blockers is raised under any one of those mutexes, hence atomic; it is
// lowered and read for a grant only by a release holding all of them.
type swaiter struct {
	owner    int
	ext      interval.Extent
	mode     Mode
	minStart sim.VTime
	ticket   sim.VTime
	seq      int64
	blockers atomic.Int64
	grantAt  sim.VTime
	shards   []int
	handles  []index.Handle
}

// released is waiter.released for one replica visit. It must not allocate.
//
//atomiovet:hotpath
func (w *swaiter) released(holder int, held Mode, at sim.VTime) bool {
	w.minStart = max(w.minStart, at)
	return blocks(holder, held, w.owner, w.mode) && w.blockers.Add(-1) == 0
}

func newShardedTable(shards int, stripe int64) *shardedTable {
	if shards < 2 {
		panic(fmt.Sprintf("lock: sharded table needs at least 2 shards, got %d", shards))
	}
	if stripe <= 0 {
		panic(fmt.Sprintf("lock: shard stripe must be positive, got %d", stripe))
	}
	st := &shardedTable{stripe: stripe, shards: make([]*lockShard, shards), coord: sim.Solo{}}
	for i := range st.shards {
		st.shards[i] = &lockShard{}
	}
	return st
}

// setCoord routes blocking and waking through a determinism coordinator.
func (st *shardedTable) setCoord(c sim.Coord) { st.coord = c }

// shardIDs returns the ascending list of shards e covers. Empty extents
// overlap nothing and conflict with nothing; they live in (and are released
// from) their offset's home shard only.
func (st *shardedTable) shardIDs(e interval.Extent) []int {
	s := len(st.shards)
	first := floorDiv(e.Off, st.stripe)
	if e.Empty() {
		return []int{shardMod(first, s)}
	}
	// Consecutive stripes belong to consecutive shards: s of them cover all.
	last := min(floorDiv(e.End()-1, st.stripe), first+int64(s)-1)
	covered := make([]bool, s)
	for k := first; k <= last; k++ {
		covered[shardMod(k, s)] = true
	}
	return ascending(covered)
}

// ascending lists the shard ids marked in covered.
func ascending(covered []bool) []int {
	ids := make([]int, 0, len(covered))
	for id, c := range covered {
		if c {
			ids = append(ids, id)
		}
	}
	return ids
}

// floorDiv is integer division rounding toward negative infinity, so stripe
// routing stays consistent for any offset.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// shardMod maps a stripe index to its shard, non-negative for any input.
func shardMod(k int64, s int) int {
	m := int(k % int64(s))
	if m < 0 {
		m += s
	}
	return m
}

// lockShards takes the mutexes of ids in ascending order (reserve phase).
// Every caller orders ids ascending, which is what makes cross-shard
// operations deadlock-free. On the hot path of every acquire/release: it
// must not allocate.
//
//atomiovet:hotpath
func (st *shardedTable) lockShards(ids []int) {
	for _, id := range ids {
		st.shards[id].mu.Lock()
	}
}

// unlockShards releases the mutexes of ids in descending order. On the
// hot path of every acquire/release: it must not allocate.
//
//atomiovet:hotpath
func (st *shardedTable) unlockShards(ids []int) {
	for i := len(ids) - 1; i >= 0; i-- {
		st.shards[ids[i]].mu.Unlock()
	}
}

// blockersLocked counts the granted locks that block (owner, e, mode), once
// per replica visit. Callers hold the mutexes of ids = shardIDs(e). It must
// not allocate.
//
//atomiovet:hotpath
func (st *shardedTable) blockersLocked(owner int, e interval.Extent, mode Mode, ids []int) int64 {
	var n int64
	for _, id := range ids {
		st.shards[id].granted.Overlapping(e, func(_ interval.Extent, _ index.Handle, h *sheld) bool {
			if blocks(h.owner, h.mode, owner, mode) {
				n++
			}
			return true
		})
	}
	return n
}

// blockLocked charges a newly granted lock (owner, e, mode) to every waiter
// it blocks, once per replica visit. Callers hold the mutexes of ids =
// shardIDs(e). It must not allocate.
//
//atomiovet:hotpath
func (st *shardedTable) blockLocked(owner int, e interval.Extent, mode Mode, ids []int) {
	for _, id := range ids {
		st.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *swaiter) bool {
			if blocks(owner, mode, w.owner, w.mode) {
				w.blockers.Add(1)
			}
			return true
		})
	}
}

// grantLocked installs (owner, e, mode) on every covered shard (commit
// phase) and returns the grant time: the accumulated floor plus the virtual
// release times of past conflicting locks on the range. Any past release
// overlapping e is recorded in some shard both cover, so the per-shard maxes
// combine to exactly the single table's answer. Callers hold the mutexes of
// ids.
func (st *shardedTable) grantLocked(owner int, e interval.Extent, mode Mode, floor sim.VTime, ids []int) sim.VTime {
	hd := &sheld{owner: owner, ext: e, mode: mode, shards: ids,
		handles: make([]index.Handle, 0, len(ids))}
	for _, id := range ids {
		hd.handles = append(hd.handles, st.shards[id].granted.Insert(e, hd))
	}
	st.nHeld.Add(1)
	st.blockLocked(owner, e, mode, ids)
	start := floor
	for _, id := range ids {
		if at := st.shards[id].exclRel.latest(e); at > start {
			start = at
		}
		if mode == Exclusive {
			if at := st.shards[id].sharedRel.latest(e); at > start {
				start = at
			}
		}
	}
	return start
}

// acquire implements grantTable.acquire: reserve the covered shards in
// ascending order, grant immediately when conflict-free, otherwise register
// a waiter on every covered shard and block until a releaser stamps the
// grant.
func (st *shardedTable) acquire(owner int, e interval.Extent, mode Mode, earliest sim.VTime) sim.VTime {
	ids := st.shardIDs(e)
	st.lockShards(ids)
	n := st.blockersLocked(owner, e, mode, ids)
	if n == 0 {
		g := st.grantLocked(owner, e, mode, earliest, ids)
		st.unlockShards(ids)
		return g
	}
	w := &swaiter{
		owner: owner, ext: e, mode: mode,
		minStart: earliest, ticket: earliest,
		shards: ids, handles: make([]index.Handle, 0, len(ids)),
	}
	w.blockers.Store(n)
	// seq is table-wide: the (ticket, seq) grant order spans shards. The
	// counter is taken while the waiter's shards are reserved, so the
	// assignment order matches the single table's.
	st.seqMu.Lock()
	w.seq = st.nextSeq
	st.nextSeq++
	st.seqMu.Unlock()
	for _, id := range ids {
		w.handles = append(w.handles, st.shards[id].waiting.Insert(e, w))
	}
	st.nWaiting.Add(1)
	// Announced under the shard mutexes, like the matching Wake, so the
	// coordinator cannot admit anyone on a stale view of this actor. The
	// park itself happens after the shards unlock; a Wake landing in that
	// window (the releaser only needs the shard mutexes) is kept by the
	// coordinator, not lost.
	st.coord.Block(owner)
	st.unlockShards(ids)
	st.coord.Park(owner, nil)
	return w.grantAt
}

// release implements grantTable.release: drop owner's lock on exactly e,
// record the virtual release time in every covered shard's history, and
// grant newly eligible waiters in table-wide (ticket, seq) order.
func (st *shardedTable) release(owner int, e interval.Extent, releaseAt sim.VTime) error {
	base := st.shardIDs(e)
	// Candidate waiters (those overlapping the freed range) may span shards
	// beyond base, and granting one needs its shards locked too. The
	// candidate set is only visible under lock, so grow the held set to a
	// fixpoint: lock, look, and if candidates need more shards, drop
	// everything and re-lock the larger ascending set. The set only grows,
	// so this terminates within S rounds; nothing is changed before the
	// last one, so what happened while unlocked is never acted on.
	locked := base
	for {
		st.lockShards(locked)
		need := st.waiterShards(base, e, locked)
		if len(need) == len(locked) {
			break
		}
		st.unlockShards(locked)
		locked = need
	}
	defer st.unlockShards(locked)

	// Locate owner's earliest-registered lock on exactly e in the freed
	// range's first shard — replicas exist on every covered shard, and
	// per-shard insertion order preserves the global one, so this is the
	// same lock the single table's scan finds. Empty extents overlap
	// nothing and need the full walk of their home shard.
	var target *sheld
	locate := func(_ interval.Extent, _ index.Handle, h *sheld) bool {
		if h.owner == owner && h.ext == e {
			target = h
			return false
		}
		return true
	}
	firstShard := st.shards[base[0]]
	if e.Empty() {
		firstShard.granted.All(locate)
	} else {
		firstShard.granted.Overlapping(e, locate)
	}
	if target == nil {
		return fmt.Errorf("lock: owner %d does not hold %v", owner, e)
	}
	for i, id := range target.shards {
		st.shards[id].granted.Delete(target.ext, target.handles[i])
	}
	st.nHeld.Add(-1)
	st.recordRelease(e, target.mode, releaseAt)

	// The single table's hand-off over the same candidates: visited once
	// per replica, a waiter can reach zero only on the last visit.
	for _, id := range base {
		st.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *swaiter) bool {
			if w.released(target.owner, target.mode, releaseAt) {
				firstShard.ready.push(w.ticket, w.seq, w)
			}
			return true
		})
	}
	firstShard.ready.handOff(func(w *swaiter) bool { return w.blockers.Load() == 0 }, func(w *swaiter) {
		for i, id := range w.shards {
			st.shards[id].waiting.Delete(w.ext, w.handles[i])
		}
		st.nWaiting.Add(-1)
		w.grantAt = st.grantLocked(w.owner, w.ext, w.mode, w.minStart, w.shards)
		// Published before the waiter can run (we still hold its shards),
		// preserving the admission invariant.
		st.coord.Wake(w.owner, w.grantAt)
	})
	return nil
}

// clipStripeFactor bounds per-release history-record work: spans covering
// up to clipStripeFactor stripes per shard are clipped stripe by stripe;
// wider ones fall back to whole-extent replication.
const clipStripeFactor = 4

// recordRelease notes e's virtual release time in the sharded range
// history. Narrow spans are clipped to the bytes each covered shard owns —
// each stripe's history goes to its owning shard, so per-shard maps stay a
// factor of S smaller than the single table's. Very wide spans (more than
// clipStripeFactor stripes per shard — a whole-file lock covers thousands)
// record the full extent on every shard instead: one entry per shard, O(S)
// records rather than one per covered stripe. Both forms answer latest()
// exactly: any past release overlapping a later request shares a covered
// shard with it, and recorded pieces never claim bytes their release did
// not cover. Callers hold the mutexes of e's covered shards.
func (st *shardedTable) recordRelease(e interval.Extent, mode Mode, releaseAt sim.VTime) {
	if e.Empty() {
		return
	}
	rm := func(id int) *releaseMap {
		if mode == Exclusive {
			return &st.shards[id].exclRel
		}
		return &st.shards[id].sharedRel
	}
	s := len(st.shards)
	first := floorDiv(e.Off, st.stripe)
	last := floorDiv(e.End()-1, st.stripe)
	if last-first+1 > clipStripeFactor*int64(s) {
		for id := 0; id < s; id++ {
			rm(id).record(e, releaseAt)
		}
		return
	}
	for k := first; k <= last; k++ {
		off, end := k*st.stripe, (k+1)*st.stripe
		if e.Off > off {
			off = e.Off
		}
		if e.End() < end {
			end = e.End()
		}
		rm(shardMod(k, s)).record(interval.Extent{Off: off, Len: end - off}, releaseAt)
	}
}

// waiterShards returns the ascending union of locked (a superset of base =
// shardIDs(e)) and the shards covered by every waiter overlapping e.
// Callers hold the mutexes of locked.
func (st *shardedTable) waiterShards(base []int, e interval.Extent, locked []int) []int {
	if len(locked) == len(st.shards) {
		return locked
	}
	covered := make([]bool, len(st.shards))
	for _, id := range locked {
		covered[id] = true
	}
	for _, id := range base {
		st.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *swaiter) bool {
			for _, id := range w.shards {
				covered[id] = true
			}
			return true
		})
	}
	return ascending(covered)
}

// holders returns the number of logical granted locks.
func (st *shardedTable) holders() int { return int(st.nHeld.Load()) }

// waiters returns the number of blocked requests.
func (st *shardedTable) waiters() int { return int(st.nWaiting.Load()) }

// relLatest reports the release history over e: the per-shard maxima
// combine to the single table's answer (see grantLocked).
func (st *shardedTable) relLatest(e interval.Extent) (excl, shared sim.VTime) {
	ids := st.shardIDs(e)
	st.lockShards(ids)
	defer st.unlockShards(ids)
	for _, id := range ids {
		if at := st.shards[id].exclRel.latest(e); at > excl {
			excl = at
		}
		if at := st.shards[id].sharedRel.latest(e); at > shared {
			shared = at
		}
	}
	return excl, shared
}

var _ grantTable = (*shardedTable)(nil)
