package pfs

import (
	"slices"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// CacheConfig configures a client's cache with the two policies the paper
// singles out as working against overlapping parallel I/O: read-ahead and
// write-behind (§3: "The read-ahead and write-behind policies often work
// against the goals of any file system relying on random-access
// operations").
type CacheConfig struct {
	// Enabled turns the client cache on.
	Enabled bool
	// BlockSize is the caching granularity in bytes.
	BlockSize int64
	// ReadAheadBlocks is how many extra blocks a read miss prefetches.
	ReadAheadBlocks int
	// WriteBehind makes writes land in the cache and reach the servers
	// only at Sync (or Close).
	WriteBehind bool
	// MemModel is the cost of moving bytes between the application and
	// the cache (a memory copy).
	MemModel sim.LinearCost
}

func (c CacheConfig) blockSize() int64 {
	if c.BlockSize <= 0 {
		return 64 << 10
	}
	return c.BlockSize
}

// cache is one client's private cache. It is not shared: cross-client
// staleness is the point being modelled.
type cache struct {
	cfg CacheConfig

	valid interval.List // readable blocks: runs of block numbers, as marked

	// Write-behind state: the log of unflushed batches in write order, each
	// the caller's own, lent (see Batch). The cache never writes through the
	// log.
	dirty      []Batch
	dirtyBytes int64
}

func newCache(cfg CacheConfig) *cache {
	return &cache{cfg: cfg}
}

// markValid makes a run of blocks readable. Requests mostly arrive in file
// order, so a run touching the newest extends it; any other is appended, with
// room for the more runs the caller has yet to mark — one growth per batch.
func (c *cache) markValid(run interval.Extent, more int) {
	if n := len(c.valid); n > 0 {
		if u, touching := c.valid[n-1].Union(run); touching {
			c.valid[n-1] = u
			return
		}
		c.valid = slices.Grow(c.valid, 1+more)
	}
	c.valid = append(c.valid, run)
}

// absorb records a write-behind write in write order.
func (c *cache) absorb(b Batch) {
	bs := c.cfg.blockSize()
	for i, e := range b.Ext {
		if e.Empty() {
			continue
		}
		c.dirtyBytes += e.Len
		// Written blocks are also readable until invalidated.
		first := e.Off / bs
		c.markValid(interval.Extent{Off: first, Len: (e.End()-1)/bs - first + 1}, len(b.Ext)-1-i)
	}
	if len(b.Ext) > 0 {
		c.dirty = append(c.dirty, b)
	}
}

// takeDirty empties the write-behind log and returns it, in write order,
// with what its flush sends: the logged extents coalesced in file order —
// the batching a write-behind cache exists to provide. A log of one batch
// already in that form (canonical) is sent as it stands. The log stays in
// the cache's array: the caller clears it once the flush has stored it.
func (c *cache) takeDirty() (Batch, []Batch) {
	log := c.dirty
	c.dirty, c.dirtyBytes = log[:0], 0
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

// read charges a read of the n bytes at off through the cache: missing
// blocks (plus read-ahead) are fetched from the servers, and the whole read
// is served at memory cost.
func (c *cache) read(cl *Client, off, n int64) {
	bs := c.cfg.blockSize()
	first := off / bs
	last := (off + n - 1) / bs

	// Find missing block runs and fetch them with read-ahead.
	for b := first; b <= last; b++ {
		if c.valid.ContainsOffset(b) {
			continue
		}
		runEnd := b
		for runEnd+1 <= last && !c.valid.ContainsOffset(runEnd+1) {
			runEnd++
		}
		fetch := runEnd - b + 1 + int64(c.cfg.ReadAheadBlocks)
		cl.queueServerService(interval.List{{Off: b * bs, Len: fetch * bs}})
		cl.clock.Advance(cl.fs.cfg.ClientModel.Cost(fetch * bs))
		c.markValid(interval.Extent{Off: b, Len: fetch}, 0)
		b = runEnd
	}
	cl.clock.Advance(c.cfg.MemModel.Cost(n))
}

// invalidate drops clean cached blocks; dirty write-behind data survives.
func (c *cache) invalidate() {
	c.valid = c.valid[:0]
}
