package pfs

import (
	"atomio/internal/interval"
	"atomio/internal/sim"
)

// CacheConfig configures a client's write-behind cache, one of the two
// policies the paper singles out as working against overlapping parallel
// I/O (§3: "The read-ahead and write-behind policies often work against the
// goals of any file system relying on random-access operations").
// Read-ahead is not modelled: no rank reads, so it has nothing to fetch.
type CacheConfig struct {
	// WriteBehind gives each client a cache: writes land in it and reach
	// the servers only at Sync (or Close).
	WriteBehind bool
	// MemModel is the cost of moving bytes between the application and
	// the cache (a memory copy).
	MemModel sim.LinearCost
}

// cache is one client's private write-behind cache: the log of unflushed
// batches in write order, each the caller's own, lent (see Batch). The
// cache never writes through the log. It is not shared: cross-client
// staleness is the point being modelled.
type cache struct {
	dirty []Batch
	first [1]Batch // dirty's array until a second batch is logged
}

// absorb records a write-behind write in write order.
func (c *cache) absorb(b Batch) {
	if len(b.Ext) == 0 {
		return
	}
	if c.dirty == nil {
		c.dirty = c.first[:0]
	}
	c.dirty = append(c.dirty, b)
}

// takeDirty empties the write-behind log and returns it, in write order,
// with what its flush sends: the logged extents coalesced in file order —
// the batching a write-behind cache exists to provide. A log of one batch
// already in that form (canonical) is sent as it stands. The log stays in
// the cache's array: the caller clears it once the flush has stored it.
func (c *cache) takeDirty() (Batch, []Batch) {
	log := c.dirty
	c.dirty = log[:0]
	switch {
	case len(log) == 0:
		return Batch{}, nil
	case len(log) == 1 && log[0].Ext.IsCanonical():
		return log[0], log
	}
	logged := log[0].Ext
	if len(log) > 1 {
		n := 0
		for _, b := range log {
			n += len(b.Ext)
		}
		logged = make(interval.List, 0, n)
		for _, b := range log {
			logged = append(logged, b.Ext...)
		}
	}
	return Batch{Ext: logged.Normalize()}, log
}
