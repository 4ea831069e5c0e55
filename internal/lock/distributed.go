package lock

import (
	"cmp"
	"slices"
	"sync"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// DistributedConfig parameterizes the GPFS-style token manager.
type DistributedConfig struct {
	// LocalCost is the cost of granting a lock from a token the client
	// already caches — the fast path that makes distributed locking
	// scale for non-overlapping access.
	LocalCost sim.VTime
	// MsgCost is the one-way client<->token-server message cost.
	MsgCost sim.VTime
	// ServiceTime is the token server's per-request processing time.
	ServiceTime sim.VTime
	// RevokeCost is charged per conflicting holder whose token must be
	// revoked (a round trip to that client plus its flush work).
	RevokeCost sim.VTime
	// Shards partitions the manager's lock table across this many
	// offset-stripe shards (0 or less means one); virtual
	// timing is invariant in the shard count (see CentralConfig.Shards).
	Shards int
	// ShardStripe is the offset-stripe width used to route requests to
	// shards; 0 selects DefaultShardStripe.
	ShardStripe int64
}

// Distributed is a GPFS-style distributed byte-range token manager: after a
// client acquires a token for a range, subsequent locks inside that range
// are granted locally; conflicting requests from other clients revoke the
// token first. Overlapping writers therefore still serialize — with extra
// revocation traffic — exactly the behaviour the paper notes: "When it
// comes to the overlapping requests, however, concurrent writes to
// overlapped data must still be sequential" (§3.2).
type Distributed struct {
	cfg     DistributedConfig
	service *sim.Resource
	tbl     *table
	coord   sim.Coord
	obs     *obs.Recorder

	mu     sync.Mutex
	tokens []ownerTokens // cached token ranges, ascending by owner

	localGrants  int64
	serverGrants int64
	revocations  int64
}

// ownerTokens is one client's cached token ranges. An owner gets its entry
// with its first request and keeps it, possibly empty, when revoked.
type ownerTokens struct {
	owner int
	toks  interval.List
}

// NewDistributed constructs a distributed token manager.
func NewDistributed(cfg DistributedConfig) *Distributed {
	return &Distributed{
		cfg:     cfg,
		service: sim.NewResource("tokenmgr"),
		tbl:     newTable(cfg.Shards, cfg.ShardStripe),
		coord:   sim.Solo{},
	}
}

// Name implements Manager.
func (d *Distributed) Name() string { return "distributed" }

// Shards returns the number of lock-table shards (at least 1).
func (d *Distributed) Shards() int { return len(d.tbl.shards) }

// SetCoord routes the manager's shared-state transitions through the run's
// coordinator (see Central.SetCoord).
func (d *Distributed) SetCoord(co sim.Coord) {
	d.coord = co
	d.tbl.setCoord(co)
}

// SetObs routes lock events and metrics into a recorder (see
// Central.SetObs for the shard-invariance argument).
func (d *Distributed) SetObs(o *obs.Recorder) { d.obs = o }

// Lock implements Manager.
func (d *Distributed) Lock(owner int, e interval.Extent, mode Mode, at sim.VTime) sim.VTime {
	d.coord.Await(owner, at)
	if d.obs != nil {
		d.obs.Emit(obs.Event{
			T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRequest,
			Tag: mode.String(), Peer: -1, Off: e.Off, Len: e.Len,
		})
	}
	need := interval.List{e}

	d.mu.Lock()
	slot, known := slices.BinarySearchFunc(d.tokens, owner,
		func(t ownerTokens, owner int) int { return cmp.Compare(t.owner, owner) })
	if !known {
		d.tokens = slices.Insert(d.tokens, slot, ownerTokens{owner: owner})
	}
	if d.tokens[slot].toks.Contains(need) {
		d.localGrants++
		d.mu.Unlock()
		// Fast path: token cached locally. Still must not conflict with
		// this client's *active* locks from others — but by token
		// exclusivity no other client can hold a conflicting token, so
		// only table registration is needed.
		ticket := at + d.cfg.LocalCost
		grant := d.tbl.acquire(owner, e, mode, ticket)
		if d.obs != nil {
			d.obs.Emit(obs.Event{
				T: grant, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockGrant,
				Tag: mode.String(), Peer: -1, Off: e.Off, Len: e.Len,
				Dur: grant - at, Aux: int64(ticket),
			})
			d.obs.Count(owner, obs.MetricLockReqs, 1)
			d.obs.Observe(owner, obs.MetricLockWait, int64(grant-at))
		}
		return grant
	}

	// Slow path: ask the token server, revoking conflicting tokens.
	// Revocation walks holders in owner order — the order d.tokens is kept
	// in: the count feeds service time below, and a fixed order keeps any
	// future per-holder cost model deterministic too.
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
	d.mu.Unlock()

	arrive := at + d.cfg.MsgCost
	_, served := d.service.Acquire(arrive, d.cfg.ServiceTime+sim.VTime(revoked)*d.cfg.RevokeCost)
	// Revoked holders may still be actively using their locks; acquire
	// waits them out and folds their release times into the grant.
	grant := d.tbl.acquire(owner, e, mode, served)
	ret := grant + d.cfg.MsgCost
	if d.obs != nil {
		if revoked > 0 {
			// Token revocation: Aux counts the holders whose cached tokens
			// this request invalidated.
			d.obs.Emit(obs.Event{
				T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRevoke,
				Peer: -1, Off: e.Off, Len: e.Len, Aux: int64(revoked),
			})
			d.obs.Count(owner, obs.MetricLockRevokes, int64(revoked))
		}
		d.obs.Emit(obs.Event{
			T: ret, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockGrant,
			Tag: mode.String(), Peer: -1, Off: e.Off, Len: e.Len,
			Dur: ret - at, Aux: int64(served),
		})
		d.obs.Count(owner, obs.MetricLockReqs, 1)
		d.obs.Observe(owner, obs.MetricLockWait, int64(ret-at))
	}
	return ret
}

// Unlock implements Manager: purely local — the token stays cached.
func (d *Distributed) Unlock(owner int, e interval.Extent, at sim.VTime) sim.VTime {
	d.coord.Await(owner, at)
	released := at + d.cfg.LocalCost
	if d.obs != nil {
		d.obs.Emit(obs.Event{
			T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRelease,
			Peer: -1, Off: e.Off, Len: e.Len, Dur: released - at,
		})
	}
	if err := d.tbl.release(owner, e, released); err != nil {
		panic(err)
	}
	return released
}

// Stats reports fast-path grants, server grants, and token revocations.
func (d *Distributed) Stats() (localGrants, serverGrants, revocations int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.localGrants, d.serverGrants, d.revocations
}

var _ Manager = (*Distributed)(nil)
