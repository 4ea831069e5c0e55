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

// table is the conflict-tracking core of both managers: it registers
// granted locks, blocks conflicting requests, and hands freed ranges to
// waiters in deterministic (ticket, seq) order. Besides the currently
// granted locks it remembers, per byte range, the latest *virtual* release
// time of past exclusive and shared locks (the per-range analogue of
// sim.Resource's free time): a lock request serializes in virtual time after
// every conflicting lock ever released on its range, even when the releases
// happened long ago in real time. Granted locks and pending waiters are kept
// in interval indexes (internal/interval/index), so a request touches only
// the locks and waiters that actually overlap it — O(log G + k).
//
// The byte range is partitioned across S >= 1 independently locked shards
// by offset stripe: byte b belongs to shard (b/stripe) mod S, and each shard
// owns its own index of granted locks, its own waiter index, and its own
// slice of the release history. Requests touch only the shards their extent
// covers, so non-overlapping traffic to different stripes never contends on
// a shared mutex. With S = 1 every extent covers the one shard and the
// table is a single mutex around a single index.
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
// Grant decisions are made by the releaser and stay global: waiters carry a
// table-wide (ticket, seq) pair, and a release hands freed ranges to the
// eligible ones in that order (readyList), stamping their grant times
// before any of them wakes, so the winner among competing waiters never
// depends on wake-up order. A release must therefore hold not only the
// freed range's shards but every shard covered by a candidate waiter; the
// candidate set is only discoverable under lock, so the release grows its
// lock set to a fixpoint, dropping all mutexes before re-acquiring the
// larger ascending set (still deadlock-free, and at most S rounds since the
// set only grows). A waiter's blocker count is kept per replica visit: an
// overlapping lock and waiter meet once in every shard both cover — when
// either registers and when the lock is released — so the count rises and
// falls by the same amount and is zero exactly when no granted lock blocks
// the waiter. Virtual timing is invariant in the shard count: grant times
// are computed from the same conflict sets and release history whatever S
// is, so a gated simulation produces byte-identical output for any S.
type table struct {
	stripe int64
	shards []*lockShard
	ids    []int // 0..S-1: shardIDs hands out windows of it
	coord  sim.Coord

	nextSeq  atomic.Int64 // waiter registration order, table-wide
	nHeld    atomic.Int64 // logical granted locks (replicas counted once)
	nWaiting atomic.Int64 // registered waiters
}

// lockShard is one offset-stripe partition: the granted and waiting extents
// covering the shard's stripes, the shard's slice of the release history,
// and the scratch of the releases whose freed range starts in this shard.
// All fields are guarded by mu.
type lockShard struct {
	mu        sync.Mutex
	granted   index.Index[*held]
	waiting   index.Index[*waiter]
	ready     readyList
	exclRel   releaseMap // release times of past exclusive locks
	sharedRel releaseMap // release times of past shared locks
}

// replicas locates the copies of one extent in the shard indexes.
type replicas struct {
	shards  []int          // covered shard ids, ascending
	handles []index.Handle // replica handle per covered shard
	one     [1]index.Handle
}

// cover sets the covered shards. An extent inside one shard — every extent
// of a one-shard table — keeps its single handle in the struct itself, so
// registering it allocates nothing beyond the lock or waiter.
func (r *replicas) cover(ids []int) {
	r.shards = ids
	if len(ids) == 1 {
		r.handles = r.one[:0]
	} else {
		r.handles = make([]index.Handle, 0, len(ids))
	}
}

// held is one granted lock.
type held struct {
	owner int
	ext   interval.Extent
	mode  Mode
	replicas
}

// waiter is one blocked request. minStart accumulates the virtual release
// times of the overlapping locks released while it waited; ticket (the
// request's original earliest-grant time) and seq (registration order)
// define the deterministic order in which freed ranges are handed out.
// grantAt is stamped by the releaser, under every shard mutex the waiter's
// extent covers, before it Wakes the owner. blockers counts, per replica
// visit, the granted locks blocking it, positive for as long as it is
// registered (see readyList); it is raised under any one of those mutexes,
// hence atomic, and lowered and read for a grant only by a release holding
// all of them.
type waiter struct {
	owner    int
	ext      interval.Extent
	mode     Mode
	minStart sim.VTime
	ticket   sim.VTime
	seq      int64
	blockers atomic.Int64
	grantAt  sim.VTime
	replicas
}

// released accounts, for one replica visit, for the release at virtual time
// at of a lock (holder, held) overlapping w — stamped whether or not it
// blocked w — and reports whether it was w's last blocker. Runs once per
// overlapping waiter per release: it must not allocate.
//
//atomiovet:hotpath
func (w *waiter) released(holder int, held Mode, at sim.VTime) bool {
	w.minStart = max(w.minStart, at)
	return blocks(holder, held, w.owner, w.mode) && w.blockers.Add(-1) == 0
}

// newTable builds a table of the given shard count and stripe width;
// shards <= 0 means one shard, stripe <= 0 DefaultShardStripe. The choice
// never changes virtual timing — only host-side data-structure and mutex
// granularity.
func newTable(shards int, stripe int64) *table {
	shards = max(shards, 1)
	if stripe <= 0 {
		stripe = DefaultShardStripe
	}
	t := &table{
		stripe: stripe, coord: sim.Solo{},
		shards: make([]*lockShard, shards), ids: make([]int, shards),
	}
	for i := range t.shards {
		t.shards[i] = &lockShard{}
		t.ids[i] = i
	}
	return t
}

// setCoord routes blocking and waking through a determinism coordinator
// (see sim.Coord).
func (t *table) setCoord(c sim.Coord) { t.coord = c }

// shardIDs returns the ascending list of shards e covers. Empty extents
// overlap nothing and conflict with nothing; they live in (and are released
// from) their offset's home shard only. Callers must not write to the
// result: the covered stripes are consecutive, so unless they wrap past
// shard S-1 the list is a window of t.ids.
func (t *table) shardIDs(e interval.Extent) []int {
	s := len(t.shards)
	first := floorDiv(e.Off, t.stripe)
	lo, n := shardMod(first, s), 1
	if !e.Empty() {
		// Consecutive stripes belong to consecutive shards: s of them cover all.
		n = int(min(floorDiv(e.End()-1, t.stripe)-first+1, int64(s)))
	}
	if n == s {
		return t.ids
	}
	if lo+n <= s {
		return t.ids[lo : lo+n : lo+n]
	}
	ids := make([]int, n)
	wrapped := copy(ids, t.ids[:lo+n-s])
	copy(ids[wrapped:], t.ids[lo:])
	return ids
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
func (t *table) lockShards(ids []int) {
	for _, id := range ids {
		t.shards[id].mu.Lock()
	}
}

// unlockShards releases the mutexes of ids in descending order. On the
// hot path of every acquire/release: it must not allocate.
//
//atomiovet:hotpath
func (t *table) unlockShards(ids []int) {
	for i := len(ids) - 1; i >= 0; i-- {
		t.shards[ids[i]].mu.Unlock()
	}
}

// blockersLocked counts the granted locks that block (owner, e, mode), once
// per replica visit, visiting only those overlapping e. Callers hold the
// mutexes of ids = shardIDs(e). Runs once per request: it must not
// allocate.
//
//atomiovet:hotpath
func (t *table) blockersLocked(owner int, e interval.Extent, mode Mode, ids []int) int64 {
	var n int64
	for _, id := range ids {
		t.shards[id].granted.Overlapping(e, func(_ interval.Extent, _ index.Handle, h *held) bool {
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
// shardIDs(e). Runs once per grant: it must not allocate.
//
//atomiovet:hotpath
func (t *table) blockLocked(owner int, e interval.Extent, mode Mode, ids []int) {
	for _, id := range ids {
		t.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
			if blocks(owner, mode, w.owner, w.mode) {
				w.blockers.Add(1)
			}
			return true
		})
	}
}

// grantLocked installs (owner, e, mode) on every covered shard (commit
// phase) and returns the grant time: the request's accumulated floor plus
// the virtual release times of past conflicting locks on the range — always
// after exclusive releases; after shared releases too when acquiring
// exclusively. Any past release overlapping e is recorded in some shard both
// cover, so the per-shard maxes combine to the answer over the whole range.
// Callers hold the mutexes of ids = shardIDs(e).
func (t *table) grantLocked(owner int, e interval.Extent, mode Mode, floor sim.VTime, ids []int) sim.VTime {
	hd := &held{owner: owner, ext: e, mode: mode}
	hd.cover(ids)
	for _, id := range ids {
		hd.handles = append(hd.handles, t.shards[id].granted.Insert(e, hd))
	}
	t.nHeld.Add(1)
	t.blockLocked(owner, e, mode, ids)
	start := floor
	for _, id := range ids {
		if at := t.shards[id].exclRel.latest(e); at > start {
			start = at
		}
		if mode == Exclusive {
			if at := t.shards[id].sharedRel.latest(e); at > start {
				start = at
			}
		}
	}
	return start
}

// acquire blocks until (owner, e, mode) is grantable, then registers the
// lock: reserve the covered shards in ascending order, grant immediately
// when conflict-free, otherwise register a waiter on every covered shard and
// park until a releaser stamps the grant. earliest is the virtual time
// before which the grant cannot happen (request arrival + service); the
// returned time additionally covers the virtual release times of all
// conflicting locks on the range, past and waited-out alike.
func (t *table) acquire(owner int, e interval.Extent, mode Mode, earliest sim.VTime) sim.VTime {
	ids := t.shardIDs(e)
	t.lockShards(ids)
	n := t.blockersLocked(owner, e, mode, ids)
	if n == 0 {
		g := t.grantLocked(owner, e, mode, earliest, ids)
		t.unlockShards(ids)
		return g
	}
	// seq is table-wide — the (ticket, seq) grant order spans shards — and
	// taken while the waiter's shards are reserved.
	w := &waiter{
		owner: owner, ext: e, mode: mode,
		minStart: earliest, ticket: earliest, seq: t.nextSeq.Add(1),
	}
	w.blockers.Store(n)
	w.cover(ids)
	for _, id := range ids {
		w.handles = append(w.handles, t.shards[id].waiting.Insert(e, w))
	}
	t.nWaiting.Add(1)
	// Announced under the shard mutexes, like the matching Wake, so the
	// coordinator cannot admit anyone on a stale view of this actor. The
	// park itself happens after the shards unlock; a Wake landing in that
	// window (the releaser only needs the shard mutexes) is kept by the
	// coordinator, not lost.
	t.coord.Block(owner)
	t.unlockShards(ids)
	t.coord.Park(owner, nil)
	return w.grantAt
}

// release drops owner's lock on exactly e, records the virtual release time
// in every covered shard's history, stamps overlapping waiters, and grants
// every waiter that became eligible — in table-wide (ticket, seq) order, so
// the hand-off is deterministic — before waking them. A release of a lock
// that is not held changes nothing.
func (t *table) release(owner int, e interval.Extent, releaseAt sim.VTime) error {
	base := t.shardIDs(e)
	// Candidate waiters (those overlapping the freed range) may span shards
	// beyond base, and granting one needs its shards locked too. The
	// candidate set is only visible under lock, so grow the held set to a
	// fixpoint: lock, look, and if candidates need more shards, drop
	// everything and re-lock the larger ascending set. The set only grows,
	// so this terminates within S rounds; nothing is changed before the
	// last one, so what happened while unlocked is never acted on.
	locked := base
	for {
		t.lockShards(locked)
		need := t.waiterShards(base, e, locked)
		if len(need) == len(locked) {
			break
		}
		t.unlockShards(locked)
		locked = need
	}
	defer t.unlockShards(locked)

	// Locate owner's earliest-registered lock on exactly e in the freed
	// range's first shard: replicas exist on every covered shard, the index
	// visits overlapping locks in (offset, insertion) order, and per-shard
	// insertion order preserves the global one. Empty extents overlap
	// nothing and need the full walk of their home shard.
	var target *held
	locate := func(_ interval.Extent, _ index.Handle, h *held) bool {
		if h.owner == owner && h.ext == e {
			target = h
			return false
		}
		return true
	}
	firstShard := t.shards[base[0]]
	if e.Empty() {
		firstShard.granted.All(locate)
	} else {
		firstShard.granted.Overlapping(e, locate)
	}
	if target == nil {
		return fmt.Errorf("lock: owner %d does not hold %v", owner, e)
	}
	for i, id := range target.shards {
		t.shards[id].granted.Delete(target.ext, target.handles[i])
	}
	t.nHeld.Add(-1)
	t.recordRelease(e, target.mode, releaseAt)

	// Only waiters overlapping the freed range can have lost a blocker;
	// those left with none are the grant candidates. Visited once per
	// replica, a waiter can reach zero only on the last visit.
	for _, id := range base {
		t.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
			if w.released(target.owner, target.mode, releaseAt) {
				firstShard.ready.push(w)
			}
			return true
		})
	}
	firstShard.ready.handOff(func(w *waiter) {
		for i, id := range w.shards {
			t.shards[id].waiting.Delete(w.ext, w.handles[i])
		}
		t.nWaiting.Add(-1)
		w.grantAt = t.grantLocked(w.owner, w.ext, w.mode, w.minStart, w.shards)
		// Published before the waiter can run (we still hold its shards),
		// preserving the admission invariant.
		t.coord.Wake(w.owner, w.grantAt)
	})
	return nil
}

// clipStripeFactor bounds per-release history-record work: spans covering
// up to clipStripeFactor stripes per shard are clipped stripe by stripe;
// wider ones fall back to whole-extent replication.
const clipStripeFactor = 4

// recordRelease notes e's virtual release time in the range history.
// Narrow spans are clipped to the bytes each covered shard owns — each
// stripe's history goes to its owning shard, so per-shard maps stay a
// factor of S smaller than a whole-range map. Very wide spans (more than
// clipStripeFactor stripes per shard — a whole-file lock covers thousands)
// record the full extent on every shard instead: one entry per shard, O(S)
// records rather than one per covered stripe. Both forms answer latest()
// exactly: any past release overlapping a later request shares a covered
// shard with it, and recorded pieces never claim bytes their release did
// not cover. Callers hold the mutexes of e's covered shards.
func (t *table) recordRelease(e interval.Extent, mode Mode, releaseAt sim.VTime) {
	if e.Empty() {
		return
	}
	rm := func(id int) *releaseMap {
		if mode == Exclusive {
			return &t.shards[id].exclRel
		}
		return &t.shards[id].sharedRel
	}
	s := len(t.shards)
	first := floorDiv(e.Off, t.stripe)
	last := floorDiv(e.End()-1, t.stripe)
	if last-first+1 > clipStripeFactor*int64(s) {
		for id := 0; id < s; id++ {
			rm(id).record(e, releaseAt)
		}
		return
	}
	for k := first; k <= last; k++ {
		off, end := k*t.stripe, (k+1)*t.stripe
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
func (t *table) waiterShards(base []int, e interval.Extent, locked []int) []int {
	if len(locked) == len(t.shards) {
		return locked
	}
	covered := make([]bool, len(t.shards))
	for _, id := range locked {
		covered[id] = true
	}
	for _, id := range base {
		t.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
			for _, id := range w.shards {
				covered[id] = true
			}
			return true
		})
	}
	return ascending(covered)
}

// holders returns the number of currently granted locks.
func (t *table) holders() int { return int(t.nHeld.Load()) }

// waiters returns the number of blocked requests.
func (t *table) waiters() int { return int(t.nWaiting.Load()) }

// relLatest reports the latest recorded virtual release times of exclusive
// and shared locks over any byte of e (the observable state of the release
// history); the per-shard maxima combine as in grantLocked.
func (t *table) relLatest(e interval.Extent) (excl, shared sim.VTime) {
	ids := t.shardIDs(e)
	t.lockShards(ids)
	defer t.unlockShards(ids)
	for _, id := range ids {
		if at := t.shards[id].exclRel.latest(e); at > excl {
			excl = at
		}
		if at := t.shards[id].sharedRel.latest(e); at > shared {
			shared = at
		}
	}
	return excl, shared
}
