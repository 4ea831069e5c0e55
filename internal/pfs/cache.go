package pfs

import (
	"fmt"
	"slices"
	"sort"

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
	cfg    CacheConfig
	retain bool // keep written bytes (mirrors Config.StoreData)

	valid interval.List // readable blocks: runs of block numbers, as marked

	// Write-behind state: the log of unflushed writes in write order. The
	// first batch after a flush is the caller's own slice and later ones go
	// onto a copy of it; the bytes stay the caller's either way, borrowed
	// until the flush (see Segment). The cache never writes through the log.
	dirty      []Segment
	dirtyBytes int64
}

func newCache(cfg CacheConfig, retain bool) *cache {
	return &cache{cfg: cfg, retain: retain}
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
func (c *cache) absorb(segs []Segment) {
	bs := c.cfg.blockSize()
	for i, s := range segs {
		n := s.Len()
		if n == 0 {
			continue
		}
		if c.retain && s.Data == nil {
			panic(fmt.Sprintf("pfs: payload-less segment [%d,+%d) absorbed by a cache that retains data", s.Off, n))
		}
		c.dirtyBytes += n
		// Written blocks are also readable until invalidated.
		first := s.Off / bs
		c.markValid(interval.Extent{Off: first, Len: (s.Off+n-1)/bs - first + 1}, len(segs)-1-i)
	}
	if len(c.dirty) == 0 {
		// The log is the batch it was given. Clipped, so that a later
		// append copies it out instead of writing into the caller's array.
		c.dirty = slices.Clip(segs)
		return
	}
	c.dirty = append(c.dirty, segs...)
}

// flushedForm reports whether segs is already what a flush sends: non-empty
// segments in file order, no two touching (interval.List.IsCanonical).
func flushedForm(segs []Segment) bool {
	for i, s := range segs {
		if s.Len() <= 0 || i > 0 && segs[i-1].Off+segs[i-1].Len() >= s.Off {
			return false
		}
	}
	return true
}

// takeDirty removes and returns the write-behind data as coalesced segments
// in file order — the batching a write-behind cache exists to provide. A log
// already in that form is handed over as it stands, the caller's slice
// included. Any other is normalized: a cache that retains nothing has only
// extents to give back, so its segments are payload-less; a retaining cache
// replays the log into one buffer per coalesced extent, in write order, so a
// client's own later write wins an overlap.
func (c *cache) takeDirty() []Segment {
	// The borrow of the caller's slice ends here.
	log := c.dirty
	c.dirty, c.dirtyBytes = nil, 0
	if flushedForm(log) {
		return log
	}
	logged := make(interval.List, len(log))
	for k, s := range log {
		logged[k] = interval.Extent{Off: s.Off, Len: s.Len()}
	}
	exts := logged.Normalize()
	segs := make([]Segment, len(exts))
	for i, e := range exts {
		segs[i] = Segment{Off: e.Off, N: e.Len}
		if c.retain {
			segs[i].Data = make([]byte, e.Len)
		}
	}
	for k, e := range logged {
		if c.retain && !e.Empty() {
			// Every logged extent lies inside one coalesced extent.
			into := segs[sort.Search(len(exts), func(i int) bool { return exts[i].End() > e.Off })]
			copy(into.Data[e.Off-into.Off:], log[k].Data)
		}
	}
	return segs
}

// read serves a read through the cache, fetching missing blocks (plus
// read-ahead) from the servers.
func (c *cache) read(cl *Client, off int64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	bs := c.cfg.blockSize()
	first := off / bs
	last := (off + int64(len(buf)) - 1) / bs

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
		cl.queueServerService([]Segment{{Off: b * bs, N: fetch * bs}})
		cl.clock.Advance(cl.fs.cfg.ClientModel.Cost(fetch * bs))
		c.markValid(interval.Extent{Off: b, Len: fetch}, 0)
		b = runEnd
	}
	// All blocks resident: serve at memory cost from the authoritative
	// store (the simulation keeps one copy of file bytes; per-client
	// *contents* staleness is governed by the lock/sync protocol of the
	// layers above, while the timing effects of caching are charged here).
	cl.clock.Advance(c.cfg.MemModel.Cost(int64(len(buf))))
	cl.f.readAt(off, buf)
	// The store has not seen the client's unflushed writes; a client reads
	// its own, so they go over the store's bytes in write order.
	req := interval.Extent{Off: off, Len: int64(len(buf))}
	for _, s := range c.dirty {
		e := interval.Extent{Off: s.Off, Len: s.Len()}
		if ov := e.Intersect(req); c.retain && !ov.Empty() {
			copy(buf[ov.Off-off:ov.End()-off], s.Data[ov.Off-e.Off:])
		}
	}
}

// invalidate drops clean cached blocks; dirty write-behind data survives.
func (c *cache) invalidate() {
	c.valid = c.valid[:0]
}
