package lock

import (
	"fmt"
	"slices"
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
// happened long ago in real time. Granted locks are kept in interval indexes
// (internal/interval/index), so a request touches only the locks that
// actually overlap it, up to the first that blocks it — O(log G + k).
//
// The byte range is partitioned across S >= 1 independently locked shards
// by offset stripe: byte b belongs to shard (b/stripe) mod S, and each shard
// owns its own index of granted locks, its own index of shared waiters, and
// its own slice of the release history. Requests touch only the shards their
// extent covers, so non-overlapping traffic to different stripes never
// contends on a shared mutex. With S = 1 every extent covers the one shard
// and the table is a single mutex around a single index.
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
// A blocked request queues behind one witness, the first granted lock found
// blocking it: each replica of a granted lock carries a (ticket, seq)
// min-heap guarded by its shard's mutex, so every waiter is in exactly one
// queue, whose lock blocks it. A release can therefore unblock only its own
// queue's members; it pops them in table-wide (ticket, seq) order — each
// queues behind another lock still blocking it or is granted — and stamps
// grant times before any of them wakes, so the winner among competing
// waiters never depends on wake-up order. Virtual timing is invariant in
// the shard count: grant times are computed from the same conflict sets and
// release history whatever S is, so a gated simulation produces
// byte-identical output for any S.
type table struct {
	stripe int64
	shards []*lockShard
	ids    []int // 0..S-1: shardIDs hands out windows of it
	coord  sim.Coord

	nextSeq atomic.Int64 // waiter registration order, table-wide
}

// lockShard is one offset-stripe partition: its granted locks (with their
// replicas' queues), shared waiters and slice of the release history, all
// guarded by mu.
type lockShard struct {
	mu        sync.Mutex
	granted   index.Index[*held]
	waiting   index.Index[*waiter] // shared waiters only: see release
	exclRel   releaseMap           // release times of past exclusive locks
	sharedRel releaseMap           // release times of past shared locks
}

// replicas locates the copies of one extent in the shard indexes: per
// covered shard, an index handle (R), or a handle and a wait queue.
type replicas[R any] struct {
	shards []int // covered shard ids, ascending
	reps   []R   // per covered shard
	one    [1]R
}

// cover sets the covered shards. An extent inside one shard — every extent
// of a one-shard table — keeps its single replica in the struct itself, so
// registering it allocates nothing beyond the lock or waiter.
func (r *replicas[R]) cover(ids []int) {
	r.shards = ids
	if len(ids) == 1 {
		r.reps = r.one[:0]
	} else {
		r.reps = make([]R, 0, len(ids))
	}
}

// held is one granted lock.
type held struct {
	owner int
	ext   interval.Extent
	mode  Mode
	replicas[grantReplica]
}

// grantReplica is a granted lock's copy in one shard: its index handle and
// the waiters queued behind it there.
type grantReplica struct {
	handle index.Handle
	queue  waitQueue
}

// waiter is one blocked request. minStart accumulates the virtual release
// times of the overlapping shared locks released while it waited (see
// release); ticket (the request's original earliest-grant time) and seq
// (registration order) define the deterministic order in which freed ranges
// are handed out. grantAt is stamped by the releaser, under every shard
// mutex the waiter's extent covers, before it Wakes the owner. Only shared
// waiters are indexed; an exclusive one keeps its shards and no handles.
type waiter struct {
	owner    int
	ext      interval.Extent
	mode     Mode
	minStart sim.VTime
	ticket   sim.VTime
	seq      int64
	grantAt  sim.VTime
	replicas[index.Handle]
}

// blocks reports whether a granted lock (holder, held) keeps a request
// (owner, mode) waiting: a lock never conflicts with its owner's other
// locks, and two shared locks coexist.
func blocks(holder int, held Mode, owner int, mode Mode) bool {
	return holder != owner && (held == Exclusive || mode == Exclusive)
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

// witnessLocked returns a granted lock that blocks (owner, e, mode) and the
// wait queue of its replica in a shard of ids, or nil when none does: the
// overlap walk stops at the first blocker. Callers hold the mutexes of ids
// = shardIDs(e). Runs once per request and once per queued waiter a release
// pops: it must not allocate.
//
//atomiovet:hotpath
func (t *table) witnessLocked(owner int, e interval.Extent, mode Mode, ids []int) (*held, *waitQueue) {
	var found *held
	for _, id := range ids {
		t.shards[id].granted.Overlapping(e, func(_ interval.Extent, _ index.Handle, h *held) bool {
			if blocks(h.owner, h.mode, owner, mode) {
				found = h
				return false
			}
			return true
		})
		if found != nil {
			i, _ := slices.BinarySearch(found.shards, id)
			return found, &found.reps[i].queue
		}
	}
	return nil, nil
}

// grantLocked installs (owner, e, mode) on every covered shard (commit
// phase) and returns the lock and its grant time: the request's accumulated
// floor plus the virtual release times of past conflicting locks on the
// range — always after exclusive releases; after shared releases too when
// acquiring exclusively. Any past release overlapping e is recorded in some
// shard both cover, so the per-shard maxes combine to the answer over the
// whole range. Callers hold the mutexes of ids = shardIDs(e).
func (t *table) grantLocked(owner int, e interval.Extent, mode Mode, floor sim.VTime, ids []int) (*held, sim.VTime) {
	hd := &held{owner: owner, ext: e, mode: mode}
	hd.cover(ids)
	for _, id := range ids {
		hd.reps = append(hd.reps, grantReplica{handle: t.shards[id].granted.Insert(e, hd)})
	}
	start := floor
	for _, id := range ids {
		start = max(start, t.shards[id].exclRel.latest(e))
		if mode == Exclusive {
			start = max(start, t.shards[id].sharedRel.latest(e))
		}
	}
	return hd, start
}

// acquire blocks until (owner, e, mode) is grantable, then registers the
// lock: reserve the covered shards in ascending order, grant immediately
// when conflict-free, otherwise queue a waiter behind one blocking lock and
// park until a releaser stamps the grant. earliest is the virtual time
// before which the grant cannot happen (request arrival + service); the
// returned time additionally covers the virtual release times of all
// conflicting locks on the range, past and waited-out alike.
func (t *table) acquire(owner int, e interval.Extent, mode Mode, earliest sim.VTime) sim.VTime {
	ids := t.shardIDs(e)
	t.lockShards(ids)
	witness, queue := t.witnessLocked(owner, e, mode, ids)
	if witness == nil {
		_, g := t.grantLocked(owner, e, mode, earliest, ids)
		t.unlockShards(ids)
		return g
	}
	// seq is table-wide — the (ticket, seq) grant order spans shards — and
	// taken while the waiter's shards are reserved.
	w := &waiter{
		owner: owner, ext: e, mode: mode,
		minStart: earliest, ticket: earliest, seq: t.nextSeq.Add(1),
	}
	if mode == Shared {
		w.cover(ids)
		for _, id := range ids {
			w.reps = append(w.reps, t.shards[id].waiting.Insert(e, w))
		}
	} else {
		w.shards = ids
	}
	queue.push(w)
	// The park happens after the shards unlock: the engine runs one actor
	// at a time, so no releaser can Wake this one in between.
	t.unlockShards(ids)
	t.coord.Park(owner, nil)
	return w.grantAt
}

// release drops owner's lock on exactly e, records the virtual release time
// in every covered shard's history, stamps the waiters that history misses,
// and hands the freed range to the lock's queued waiters — in table-wide
// (ticket, seq) order, so the hand-off is deterministic — before waking
// them. A release of a lock that is not held changes nothing.
func (t *table) release(owner int, e interval.Extent, releaseAt sim.VTime) error {
	base := t.shardIDs(e)
	// The lock's queued waiters may span shards beyond base, and granting
	// one needs its shards locked too. They are only visible under lock, so
	// grow the held set to a fixpoint: lock, look, and if they need more
	// shards, drop everything and re-lock the larger ascending set. The set
	// only grows, so this terminates within S rounds; nothing is changed
	// before the last one, so what happened while unlocked is never acted on.
	locked := base
	var target *held
	for {
		t.lockShards(locked)
		if target = t.locateLocked(owner, e, base[0]); target == nil {
			t.unlockShards(locked)
			return fmt.Errorf("lock: owner %d does not hold %v", owner, e)
		}
		need := t.queuedShards(target, locked)
		if len(need) == len(locked) {
			break
		}
		t.unlockShards(locked)
		locked = need
	}
	defer t.unlockShards(locked)

	for i, id := range target.shards {
		t.shards[id].granted.Delete(target.ext, target.reps[i].handle)
	}
	t.recordRelease(e, target.mode, releaseAt)
	// A waiter's grant time covers every overlapping release while it
	// waited. grantLocked reads them back from the history, except a shared
	// release for a shared waiter: stamped here, the reason shared waiters
	// alone are indexed.
	if target.mode == Shared {
		for _, id := range base {
			t.shards[id].waiting.Overlapping(e, func(_ interval.Extent, _ index.Handle, w *waiter) bool {
				w.minStart = max(w.minStart, releaseAt)
				return true
			})
		}
	}

	// Only target's queue can hold waiters the release unblocks: every
	// other waiter's witness is still granted. Pop them in (ticket, seq)
	// order; each queues behind a lock that still blocks it — granted
	// earlier, or just now in this loop — or is the least unblocked waiter.
	// The replicas' queues merge into the first's, where whole queues move.
	q := target.reps[0].queue
	for _, r := range target.reps[1:] {
		for _, w := range r.queue.items {
			q.push(w)
		}
	}
	for len(q.items) > 0 {
		w := q.pop()
		if witness, queue := t.witnessLocked(w.owner, w.ext, w.mode, w.shards); witness != nil {
			queue.push(w)
			continue
		}
		if w.mode == Shared {
			for i, id := range w.shards {
				t.shards[id].waiting.Delete(w.ext, w.reps[i])
			}
		}
		var g *held
		g, w.grantAt = t.grantLocked(w.owner, w.ext, w.mode, w.minStart, w.shards)
		// Published before the waiter can run (we still hold its shards),
		// preserving the admission invariant.
		t.coord.Wake(w.owner, w.grantAt)
		// Every member's extent contains the core and no member is g's
		// owner (an owner parks in acquire, so it had one waiter: w), so an
		// exclusive grant over the core blocks them all: the rest of the
		// queue moves behind it whole.
		if g.mode == Exclusive && g.ext.Overlaps(q.core) {
			g.reps[0].queue, q = q, waitQueue{}
		}
	}
	return nil
}

// locateLocked returns owner's earliest-registered lock on exactly e, or
// nil, from e's first shard: the index visits overlapping locks in (offset,
// insertion) order, and per-shard insertion order preserves the global one.
// Empty extents overlap nothing: their home shard is walked whole. Callers
// hold the shard's mutex.
func (t *table) locateLocked(owner int, e interval.Extent, first int) *held {
	var target *held
	locate := func(_ interval.Extent, _ index.Handle, h *held) bool {
		if h.owner == owner && h.ext == e {
			target = h
			return false
		}
		return true
	}
	if e.Empty() {
		t.shards[first].granted.All(locate)
	} else {
		t.shards[first].granted.Overlapping(e, locate)
	}
	return target
}

// queuedShards returns the ascending union of locked and the shards covered
// by every waiter queued behind target, stopping once that is all of them.
// Callers hold the mutexes of locked, which include target's shards.
func (t *table) queuedShards(target *held, locked []int) []int {
	if len(locked) == len(t.shards) {
		return locked
	}
	covered, n := make([]bool, len(t.shards)), 0
	mark := func(ids []int) {
		for _, id := range ids {
			if !covered[id] {
				covered[id] = true
				n++
			}
		}
	}
	mark(locked)
	for _, r := range target.reps {
		for _, w := range r.queue.items {
			if mark(w.shards); n == len(t.shards) {
				return t.ids
			}
		}
	}
	return ascending(covered)
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
