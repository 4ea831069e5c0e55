package pfs

import (
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
	retain bool // log whose data a flush stores (mirrors Config.StoreData)
	rank   int  // the client's: the writer of its own bytes

	valid interval.List // readable blocks: runs of block numbers, as marked

	// Write-behind state: the log of unflushed batches in write order, each
	// the caller's own, borrowed until the flush (see Batch). The cache never
	// writes through the log.
	dirty      []Batch
	dirtyBytes int64
}

func newCache(cfg CacheConfig, retain bool, rank int) *cache {
	return &cache{cfg: cfg, retain: retain, rank: rank}
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

// takeDirty empties the write-behind log and returns what a flush sends:
// coalesced extents in file order — the batching a write-behind cache exists
// to provide. A log of one batch already in that form (canonical) is handed
// over as it stands. Any other is normalized into one batch; a retaining
// cache also returns the log it is to be stored from, so a client's own
// later write wins an overlap.
func (c *cache) takeDirty() (Batch, *assembly) {
	log := c.dirty
	c.dirty, c.dirtyBytes = log[:0], 0
	defer clear(log) // the borrow of the caller's batches ends with the flush
	switch {
	case len(log) == 0:
		return Batch{}, nil
	case len(log) == 1 && log[0].Ext.IsCanonical():
		return log[0], nil
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
	flushed := Batch{Ext: logged.Normalize()}
	if !c.retain {
		return flushed, nil
	}
	return flushed, newAssembly(log, flushed.Ext, c.rank)
}

// piece is one logged extent, the n bytes at off, and the rank whose data
// they are.
type piece struct {
	off, n int64
	writer int
}

// assembly is a retaining cache's log as its flush stores it: the logged
// pieces grouped by the coalesced extent each lies in, in write order
// within a group.
type assembly struct {
	exts   interval.List // the coalesced extents, canonical
	ends   []int32       // group j is pieces[ends[j-1]:ends[j]], from 0 for j = 0
	pieces []piece
}

// newAssembly groups log's pieces by the extent of exts — the log's
// normalized extents — each lies in: a counting sort, stable, so write
// order holds within a group. A piece no batch names a writer for is rank's.
func newAssembly(log []Batch, exts interval.List, rank int) *assembly {
	a := &assembly{exts: exts, ends: make([]int32, len(exts))}
	j := 0 // the group of the last piece: a log mostly runs in file order
	group := func(e interval.Extent) int {
		if !exts[j].ContainsExtent(e) {
			j = a.group(e.Off)
		}
		return j
	}
	n := int32(0)
	for _, b := range log {
		for _, e := range b.Ext {
			if !e.Empty() {
				a.ends[group(e)]++
				n++
			}
		}
	}
	var at int32 // ends[j] becomes group j's start, and the fill moves it to its end
	for j, count := range a.ends {
		a.ends[j], at = at, at+count
	}
	a.pieces = make([]piece, n)
	for _, b := range log {
		for i, e := range b.Ext {
			if !e.Empty() {
				g := group(e)
				a.pieces[a.ends[g]] = piece{e.Off, e.Len, b.writer(i, rank)}
				a.ends[g]++
			}
		}
	}
	return a
}

// group returns the index of the coalesced extent holding offset off.
func (a *assembly) group(off int64) int {
	return sort.Search(len(a.exts), func(j int) bool { return a.exts[j].End() > off })
}

// source returns where e, which lies inside one coalesced extent, is stored
// from: that extent's pieces, in write order.
func (a *assembly) source(e interval.Extent) source {
	j := a.group(e.Off)
	var start int32
	if j > 0 {
		start = a.ends[j-1]
	}
	return a.pieces[start:a.ends[j]]
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
