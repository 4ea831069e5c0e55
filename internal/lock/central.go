package lock

import (
	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// CentralConfig parameterizes a central lock manager.
type CentralConfig struct {
	// MsgCost is the one-way client<->manager message cost.
	MsgCost sim.VTime
	// ServiceTime is the manager's per-request processing time; all
	// requests funnel through one queue, which is the central manager's
	// scalability limit the paper points at ("Most of the existing
	// locking protocols is central managed and its scalability is,
	// hence, limited").
	ServiceTime sim.VTime
}

// Central is a centrally managed byte-range lock service.
type Central struct {
	cfg     CentralConfig
	service *sim.Resource
	tbl     *table
	coord   sim.Coord
	obs     *obs.Recorder
}

// NewCentral constructs a central lock manager.
func NewCentral(cfg CentralConfig) *Central {
	return &Central{
		cfg:     cfg,
		service: sim.NewResource("lockmgr"),
		tbl:     newTable(),
		coord:   sim.Solo{},
	}
}

// Name implements Manager.
func (c *Central) Name() string { return "central" }

// SetCoord routes the manager's shared-state transitions through the run's
// coordinator (see sim.Coord); lock owners double as actor ids. Until it is
// called the manager serves a single caller (sim.Solo).
func (c *Central) SetCoord(co sim.Coord) {
	c.coord = co
	c.tbl.setCoord(co)
}

// SetObs routes lock events and metrics into a recorder. Events are
// emitted at the manager level, by the owner itself, never inside
// the grant table.
func (c *Central) SetObs(o *obs.Recorder) { c.obs = o }

// Lock implements Manager: request travels to the manager, queues for
// service, then waits out conflicting holders; the reply travels back.
func (c *Central) Lock(owner int, e interval.Extent, mode Mode, at sim.VTime) sim.VTime {
	c.coord.Await(owner, at)
	if c.obs != nil {
		c.obs.Emit(obs.Event{
			T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRequest,
			Tag: mode.String(), Peer: -1, Off: e.Off, Len: e.Len,
		})
	}
	arrive := at + c.cfg.MsgCost
	_, served := c.service.Acquire(arrive, c.cfg.ServiceTime)
	grant := c.tbl.acquire(owner, e, mode, served)
	ret := grant + c.cfg.MsgCost
	if c.obs != nil {
		// Aux carries the ticket: the earliest-grant time that orders the
		// request in the table-wide (ticket, seq) grant order.
		c.obs.Emit(obs.Event{
			T: ret, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockGrant,
			Tag: mode.String(), Peer: -1, Off: e.Off, Len: e.Len,
			Dur: ret - at, Aux: int64(served),
		})
		c.obs.Count(owner, obs.MetricLockReqs, 1)
		c.obs.Observe(owner, obs.MetricLockWait, int64(ret-at))
	}
	return ret
}

// Unlock implements Manager: the release message travels to the manager
// and is processed after a fixed service delay; the caller does not wait.
// Releases deliberately do not book the shared request queue: the queue is
// FCFS in *real* call order, and letting a high-virtual-time release ratchet
// it would delay unrelated later requests that carry earlier virtual
// timestamps (see the conservative-timing notes in package sim).
func (c *Central) Unlock(owner int, e interval.Extent, at sim.VTime) sim.VTime {
	c.coord.Await(owner, at)
	served := at + c.cfg.MsgCost + c.cfg.ServiceTime
	if c.obs != nil {
		// Dur spans until the manager actually frees the range, so the
		// event's finish time is the instant waiters can be granted.
		c.obs.Emit(obs.Event{
			T: at, Actor: owner, Layer: obs.LayerLock, Kind: obs.KindLockRelease,
			Peer: -1, Off: e.Off, Len: e.Len, Dur: served - at,
		})
	}
	if err := c.tbl.release(owner, e, served); err != nil {
		panic(err)
	}
	return at + c.cfg.MsgCost
}

var _ Manager = (*Central)(nil)
