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

	valid map[int64]bool // readable blocks

	// Write-behind state: the log of dirty extents in write order and, when
	// retaining, each entry's bytes beside it. The bytes are the caller's
	// own slices, borrowed until the flush (see Segment): nothing is copied
	// on the way in.
	dirtyExts  interval.List
	dirtyBufs  [][]byte
	dirtyBytes int64
}

func newCache(cfg CacheConfig, retain bool) *cache {
	return &cache{cfg: cfg, retain: retain, valid: make(map[int64]bool)}
}

// absorb records a write-behind write in write order.
func (c *cache) absorb(segs []Segment) {
	bs := c.cfg.blockSize()
	c.dirtyExts = slices.Grow(c.dirtyExts, len(segs))
	if c.retain {
		c.dirtyBufs = slices.Grow(c.dirtyBufs, len(segs))
	}
	for _, s := range segs {
		n := s.Len()
		if n == 0 {
			continue
		}
		c.dirtyBytes += n
		c.dirtyExts = append(c.dirtyExts, interval.Extent{Off: s.Off, Len: n})
		if c.retain {
			if s.Data == nil {
				panic(fmt.Sprintf("pfs: payload-less segment [%d,+%d) absorbed by a cache that retains data", s.Off, n))
			}
			c.dirtyBufs = append(c.dirtyBufs, s.Data)
		}
		// Written blocks are also readable until invalidated.
		for b := s.Off / bs; b <= (s.Off+n-1)/bs; b++ {
			c.valid[b] = true
		}
	}
}

// takeDirty removes and returns the write-behind data as coalesced segments
// in file order — the batching a write-behind cache exists to provide. A
// cache that retains nothing has only extents to give back, so its segments
// are payload-less. A retaining cache whose log is already that list
// (sorted, disjoint, non-touching) hands back the logged slices themselves;
// any other log is replayed into one buffer per coalesced extent, in write
// order, so a client's own later write wins an overlap.
func (c *cache) takeDirty() []Segment {
	if c.dirtyBytes == 0 {
		return nil
	}
	lend := c.dirtyExts.IsCanonical()
	exts := c.dirtyExts.Normalize()
	segs := make([]Segment, len(exts))
	switch {
	case !c.retain:
		for i, e := range exts {
			segs[i] = Segment{Off: e.Off, N: e.Len}
		}
	case lend:
		for i, e := range exts {
			segs[i] = Segment{Off: e.Off, Data: c.dirtyBufs[i]}
		}
	default:
		for i, e := range exts {
			segs[i] = Segment{Off: e.Off, Data: make([]byte, e.Len)}
		}
		for k, e := range c.dirtyExts {
			// Every logged extent lies inside one coalesced extent.
			into := segs[sort.Search(len(exts), func(i int) bool { return exts[i].End() > e.Off })]
			copy(into.Data[e.Off-into.Off:], c.dirtyBufs[k])
		}
	}
	// The segments hold no reference to exts, so the extent log's backing
	// array serves the next batch; the borrowed slices are let go.
	c.dirtyExts, c.dirtyBytes = c.dirtyExts[:0], 0
	clear(c.dirtyBufs)
	c.dirtyBufs = c.dirtyBufs[:0]
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
		if c.valid[b] {
			continue
		}
		runEnd := b
		for runEnd+1 <= last && !c.valid[runEnd+1] {
			runEnd++
		}
		fetch := runEnd - b + 1 + int64(c.cfg.ReadAheadBlocks)
		cl.queueServerService([]Segment{{Off: b * bs, N: fetch * bs}})
		cl.clock.Advance(cl.fs.cfg.ClientModel.Cost(fetch * bs))
		for v := b; v < b+fetch; v++ {
			c.valid[v] = true
		}
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
	for k, data := range c.dirtyBufs {
		e := c.dirtyExts[k]
		if ov := e.Intersect(req); !ov.Empty() {
			copy(buf[ov.Off-off:ov.End()-off], data[ov.Off-e.Off:])
		}
	}
}

// invalidate drops clean cached blocks; dirty write-behind data survives.
func (c *cache) invalidate() {
	c.valid = make(map[int64]bool)
}
