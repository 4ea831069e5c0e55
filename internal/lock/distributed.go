package lock

import (
	"slices"
	"sort"

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

	runs   []tokenRun // every client's cached tokens, ascending by offset
	others []int      // scratch: the owners one request revokes

	localGrants  int64
	serverGrants int64
	revocations  int64
}

// tokenRun is a byte range whose token one client caches. Tokens are
// exclusive, so all clients' tokens together form one disjoint range map:
// runs never overlap, and an owner's touching runs are one run.
type tokenRun struct {
	ext   interval.Extent
	owner int
}

// NewDistributed constructs a distributed token manager.
func NewDistributed(cfg DistributedConfig) *Distributed {
	return &Distributed{
		cfg:     cfg,
		service: sim.NewResource("tokenmgr"),
		tbl:     newTable(),
		coord:   sim.Solo{},
	}
}

// Name implements Manager.
func (d *Distributed) Name() string { return "distributed" }

// SetCoord routes the manager's shared-state transitions through the run's
// coordinator (see Central.SetCoord).
func (d *Distributed) SetCoord(co sim.Coord) {
	d.coord = co
	d.tbl.setCoord(co)
}

// SetObs routes lock events and metrics into a recorder (see
// Central.SetObs).
func (d *Distributed) SetObs(o *obs.Recorder) { d.obs = o }

// Lock implements Manager.
func (d *Distributed) Lock(owner int, e interval.Extent, mode Mode, at sim.VTime) sim.VTime {
	d.coord.Await(owner, at)
	// The runs overlapping e are [lo, hi); an owner's token covers e only
	// within one run.
	lo := sort.Search(len(d.runs), func(i int) bool { return d.runs[i].ext.End() > e.Off })
	hi := lo + sort.Search(len(d.runs)-lo, func(i int) bool { return d.runs[lo+i].ext.Off >= e.End() })
	local := e.Empty() || (lo < hi && d.runs[lo].owner == owner && d.runs[lo].ext.ContainsExtent(e))
	revoked := 0
	if local {
		d.localGrants++
	} else {
		revoked = d.take(lo, hi, owner, e)
		d.serverGrants++
		d.revocations += int64(revoked)
	}

	// Fast path: by token exclusivity no other client can hold a conflicting
	// token, so only table registration is needed. The slow path asks the
	// token server across the network, which pays per revocation.
	ticket, reply := at+d.cfg.LocalCost, sim.VTime(0)
	if !local {
		_, ticket = d.service.Acquire(at+d.cfg.MsgCost, d.cfg.ServiceTime+sim.VTime(revoked)*d.cfg.RevokeCost)
		reply = d.cfg.MsgCost
	}
	// Revoked holders may still be actively using their locks; acquire
	// waits them out and folds their release times into the grant.
	ret := d.tbl.acquire(owner, e, mode, ticket) + reply
	if d.obs != nil && revoked > 0 {
		// Token revocation: Aux counts the holders whose cached tokens
		// this request invalidated.
		d.obs.Emit(obs.Event{
			T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRevoke,
			Peer: -1, Off: e.Off, Len: e.Len, Aux: int64(revoked),
		})
		d.obs.Count(owner, obs.MetricLockRevokes, int64(revoked))
	}
	traceGrant(d.obs, owner, e, mode, at, ret, ticket)
	return ret
}

// take gives owner the token for non-empty e and returns how many other
// owners it revokes: the runs [lo, hi) overlapping e keep only their parts
// outside it, and owner's run over e absorbs the owner's runs it overlaps or
// touches.
func (d *Distributed) take(lo, hi, owner int, e interval.Extent) int {
	others := d.others[:0]
	for _, r := range d.runs[lo:hi] {
		if r.owner != owner {
			others = append(others, r.owner)
		}
	}
	slices.Sort(others)
	d.others = others[:0]
	if lo > 0 && d.runs[lo-1].owner == owner && d.runs[lo-1].ext.End() == e.Off {
		lo--
	}
	if hi < len(d.runs) && d.runs[hi].owner == owner && d.runs[hi].ext.Off == e.End() {
		hi++
	}
	pieces := [3]tokenRun{1: {ext: e, owner: owner}} // left rest, e, right rest
	from, to := 1, 2
	if lo < hi {
		if first := d.runs[lo]; first.owner == owner {
			pieces[1].ext = pieces[1].ext.Union(first.ext)
		} else if first.ext.Off < e.Off {
			pieces[0] = tokenRun{ext: interval.Extent{Off: first.ext.Off, Len: e.Off - first.ext.Off}, owner: first.owner}
			from = 0
		}
		if last := d.runs[hi-1]; last.owner == owner {
			pieces[1].ext = pieces[1].ext.Union(last.ext)
		} else if last.ext.End() > e.End() {
			pieces[2] = tokenRun{ext: interval.Extent{Off: e.End(), Len: last.ext.End() - e.End()}, owner: last.owner}
			to = 3
		}
	}
	d.runs = slices.Replace(d.runs, lo, hi, pieces[from:to]...)
	return len(slices.Compact(others))
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

var _ Manager = (*Distributed)(nil)
