package pfs

import (
	"math"

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
	whole int64    // the log's bytes while it is one canonical batch, else 0
}

// absorb logs a write-behind write and returns its bytes. The pass that
// sums them also notes whether the log is one canonical batch: a view's
// request is, but an aggregator's runs for different writers may touch.
func (c *cache) absorb(b Batch) int64 {
	total, end, canonical := int64(0), int64(math.MinInt64), len(c.dirty) == 0
	for _, e := range b.Ext {
		if e.Len <= 0 || e.Off <= end {
			canonical = false
		}
		total, end = total+e.Len, e.End()
	}
	if len(b.Ext) == 0 {
		return 0
	}
	if c.dirty == nil {
		c.dirty = c.first[:0]
	}
	c.dirty, c.whole = append(c.dirty, b), 0
	if canonical {
		c.whole = total
	}
	return total
}

// takeDirty empties the write-behind log and returns it, in write order,
// with what its flush sends and that batch's bytes: the logged extents
// coalesced in file order — the batching a write-behind cache exists to
// provide. One canonical batch is sent as it stands, with absorb's count;
// any other log is counted coalesced, as an overlap shrinks it. The log
// stays in the cache's array: the caller clears it after the flush.
func (c *cache) takeDirty() (Batch, []Batch, int64) {
	log, whole := c.dirty, c.whole
	c.dirty, c.whole = log[:0], 0
	switch {
	case len(log) == 0:
		return Batch{}, nil, 0
	case whole > 0:
		return log[0], log, whole
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
	logged = logged.Normalize()
	return Batch{Ext: logged}, log, logged.TotalLen()
}
