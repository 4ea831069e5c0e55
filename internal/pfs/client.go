package pfs

import (
	"errors"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

// Segment is one contiguous piece of a vectored request. Its length is
// authoritative and its bytes are optional: a segment with nil Data is
// payload-less and stands for N bytes at Off whose content nobody reads —
// all a file system that stores no data (Config.StoreData off) needs to
// charge time. Every cost is computed from Len, so a payload-less segment
// and a Data-carrying one of the same length are indistinguishable in
// virtual time. A payload-less segment that reaches a place that needs
// bytes — the content store of a storing file system, a retaining cache —
// panics: it is a bug in the caller, never silently stored zeros.
//
// Bytes handed to WriteV on a write-behind client are borrowed, not copied:
// the caller must leave them alone until the client's next Sync or Close
// returns, after which the store owns its own copy. The slice of segments
// is borrowed for as long, like its bytes, and is read-only to pfs.
type Segment struct {
	Off  int64
	Data []byte
	// N is the byte count of a payload-less segment; ignored when Data is
	// non-nil.
	N int64
}

// Len returns the segment's byte count.
func (s Segment) Len() int64 {
	if s.Data != nil {
		return int64(len(s.Data))
	}
	return s.N
}

// slice returns the n-byte piece of s that starts from bytes into it,
// payload-less if s is.
func (s Segment) slice(from, n int64) Segment {
	if s.Data == nil {
		return Segment{Off: s.Off + from, N: n}
	}
	return Segment{Off: s.Off + from, Data: s.Data[from : from+n]}
}

// totalLen sums the byte counts of a vectored request.
func totalLen(segs []Segment) int64 {
	var total int64
	for _, s := range segs {
		total += s.Len()
	}
	return total
}

// Client is one process's handle to a file. A client is owned by a single
// rank: it advances that rank's virtual clock as it charges I/O
// time and, when caching is enabled, holds that rank's private cache —
// which is exactly what makes concurrent overlapping I/O interesting.
type Client struct {
	fs    *FileSystem
	f     *file
	clock *sim.Clock
	rank  int
	cache *cache
	loads []load // queueServerService scratch, indexed by server

	bytesWritten int64
	bytesRead    int64

	// inAtomic marks a WriteVAtomic in progress: the client already holds
	// the coordinator turn for the whole call, so inner server bookings
	// must not re-enter the coordinator (the turn is what serializes
	// atomic listio calls).
	inAtomic bool

	// BeforeSegment and AfterSegment, when non-nil, run around each
	// segment of a direct (non-cached) write landing in the file store.
	// Tests use them to force deterministic interleavings of concurrent
	// non-atomic writers — the failure injection behind the Figure 2
	// reproduction. A hook that has to wait for another client does so
	// through the run's coordinator (Await at a chosen virtual time).
	BeforeSegment func(segIndex int)
	AfterSegment  func(segIndex int)
}

// Open returns a client handle for rank on the named file, creating the
// file on first open. The clock is the rank's virtual clock.
func (fs *FileSystem) Open(name string, rank int, clock *sim.Clock) (*Client, error) {
	f, err := fs.lookup(name, true)
	if err != nil {
		return nil, err
	}
	c := &Client{fs: fs, f: f, clock: clock, rank: rank, loads: make([]load, fs.cfg.Servers)}
	if fs.cfg.Cache.Enabled {
		c.cache = newCache(fs.cfg.Cache, fs.cfg.StoreData)
	}
	return c, nil
}

// Rank returns the owning rank.
func (c *Client) Rank() int { return c.rank }

// BytesWritten returns the total bytes this client has written (through
// cache or directly).
func (c *Client) BytesWritten() int64 { return c.bytesWritten }

// BytesRead returns the total bytes this client has read.
func (c *Client) BytesRead() int64 { return c.bytesRead }

// WriteAt writes one contiguous segment.
func (c *Client) WriteAt(off int64, data []byte) {
	c.WriteV([]Segment{{Off: off, Data: data}})
}

// WriteV writes a vectored request: the lio_listio-style multi-segment
// write the paper discusses in §3.2. With write-behind caching enabled the
// data is absorbed into the client cache at memory cost and reaches the
// servers at the next Sync; otherwise it is transferred immediately.
func (c *Client) WriteV(segs []Segment) {
	total := totalLen(segs)
	c.bytesWritten += total
	if c.cache != nil && c.fs.cfg.Cache.WriteBehind {
		c.clock.Advance(c.fs.cfg.Cache.MemModel.Cost(total))
		c.cache.absorb(segs)
		return
	}
	c.transferWrite(segs)
}

// Borrows reports whether WriteV keeps the caller's bytes until the next
// Sync instead of copying or transferring them before it returns (see
// Segment): true of a write-behind client on a file system that stores data.
func (c *Client) Borrows() bool {
	return c.cache != nil && c.cache.retain && c.fs.cfg.Cache.WriteBehind
}

// transferWrite moves segments to the servers, charging client-side cost
// serially and queueing per-server service on the server pool.
func (c *Client) transferWrite(segs []Segment) {
	total := totalLen(segs)
	if total == 0 {
		return
	}
	// Client-side: link transfer plus per-extra-segment processing.
	cost := c.fs.cfg.ClientModel.Cost(total)
	if n := len(segs); n > 1 {
		cost += sim.VTime(n-1) * c.fs.cfg.SegOverhead
	}
	c.clock.Advance(cost)

	// Surrender the pieces routed to crashed servers: the client has paid
	// the link cost, but a down server neither stores nor serves them.
	segs = c.dropFaulted(segs)

	// Store the bytes (per segment, so concurrent overlapping writers genuinely
	// interleave in file content). A data-less file only grows, once per batch.
	var end int64
	for i, s := range segs {
		if c.BeforeSegment != nil {
			c.BeforeSegment(i)
		}
		switch {
		case s.Len() == 0:
		case c.f.content == nil:
			end = max(end, s.Off+s.Len())
		default:
			c.f.writeAt(s, c.rank)
		}
		if c.AfterSegment != nil {
			c.AfterSegment(i)
		}
	}
	c.f.growTo(end)

	// Server-side: accumulate service per server and queue it.
	c.queueServerService(segs)
}

// load is the service one request batch asks of one server.
type load struct {
	bytes int64
	reqs  int64
}

// queueServerService books per-server FCFS service for the given segments
// and advances the client clock to the last completion.
func (c *Client) queueServerService(segs []Segment) {
	loads := c.loads
	clear(loads)
	for _, s := range segs {
		n := s.Len()
		if n == 0 {
			continue
		}
		if c.fs.cfg.Mode == ClientAffinity {
			l := &loads[c.fs.serverFor(s.Off, c.rank)]
			l.bytes += n
			l.reqs++
			continue
		}
		// Split the segment at stripe boundaries (the same piece iterator
		// the striped store routes storage with).
		eachStripePiece(c.fs.cfg.StripeSize, c.fs.cfg.Servers, s.Off, n, func(server int, _, take int64) {
			loads[server].bytes += take
			loads[server].reqs++
		})
	}
	now := c.clock.Now()
	if !c.inAtomic {
		// The whole batch books at `now` under one coordinator turn, so
		// concurrent clients hit the per-server FCFS queues in
		// deterministic virtual-time order.
		c.fs.coord.Await(c.rank, now)
	}
	// Book the per-server service in ascending server order: every queue
	// is hit at the same `now`, but a fixed order keeps the booking
	// sequence (and so any tie-breaking inside the queues) deterministic.
	var latest sim.VTime
	for server, l := range loads {
		if l.reqs == 0 {
			continue
		}
		m := c.fs.serverModel(server)
		svc := sim.VTime(l.reqs)*m.Latency +
			sim.LinearCost{BytesPerSec: m.BytesPerSec}.Cost(l.bytes)
		c.fs.stats[server].requests += l.reqs
		c.fs.stats[server].bytes += l.bytes
		start, end := c.fs.servers.Member(server).Acquire(now, svc)
		if o := c.fs.obs; o != nil {
			depth := c.fs.noteBooking(server, now, end)
			o.Emit(obs.Event{
				T: now, Actor: c.rank, Layer: obs.LayerPFS, Kind: obs.KindQueue,
				Peer: server, Size: l.bytes, Aux: depth,
			})
			o.Emit(obs.Event{
				T: start, Actor: c.rank, Layer: obs.LayerPFS, Kind: obs.KindServiceStart,
				Peer: server, Size: l.bytes,
			})
			o.Emit(obs.Event{
				T: end, Actor: c.rank, Layer: obs.LayerPFS, Kind: obs.KindServiceDone,
				Peer: server, Size: l.bytes, Dur: end - start,
			})
			o.Count(c.rank, obs.MetricPFSReqs, l.reqs)
			o.Observe(c.rank, obs.MetricPFSService, int64(end-start))
			o.MaxGauge(c.rank, obs.MetricQueueDepth, depth)
		}
		if end > latest {
			latest = end
		}
	}
	c.clock.AdvanceTo(latest)
}

// ErrNoAtomicListIO is returned by WriteVAtomic on file systems without the
// atomic vectored-write capability.
var ErrNoAtomicListIO = errors.New("pfs: file system does not provide atomic listio")

// WriteVAtomic performs a vectored write that is atomic with respect to
// every other WriteVAtomic on the same file — the lio_listio-with-POSIX-
// atomicity capability of the paper's §3.2. It bypasses the write-behind
// cache (the data must be committed as one unit) and serializes with other
// atomic vectored writes in virtual time.
func (c *Client) WriteVAtomic(segs []Segment) error {
	if !c.fs.cfg.AtomicListIO {
		return ErrNoAtomicListIO
	}
	// Take the coordinator turn for the whole atomic call: admission order
	// determines the serialization of atomic vectored writes, and nothing
	// inside the call yields the turn, so its segment stores are
	// indivisible.
	c.fs.coord.Await(c.rank, c.clock.Now())
	c.inAtomic = true
	defer func() { c.inAtomic = false }()
	// Queue behind earlier atomic vectored writes in virtual time.
	c.clock.AdvanceTo(c.f.listioFreeAt)
	c.bytesWritten += totalLen(segs)
	c.transferWrite(segs)
	c.f.listioFreeAt = c.clock.Now()
	return nil
}

// ReadAt fills buf from the file at off. With caching enabled, whole cache
// blocks are fetched (plus read-ahead) and hits are served at memory cost;
// otherwise the read goes straight to the servers.
func (c *Client) ReadAt(off int64, buf []byte) {
	c.bytesRead += int64(len(buf))
	if c.cache != nil {
		c.cache.read(c, off, buf)
		return
	}
	c.transferRead(off, buf)
}

// ReadV reads a vectored request segment by segment.
func (c *Client) ReadV(segs []Segment) {
	for _, s := range segs {
		c.ReadAt(s.Off, s.Data)
	}
}

// transferRead fetches bytes from the servers with full cost accounting.
func (c *Client) transferRead(off int64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	c.clock.Advance(c.fs.cfg.ClientModel.Cost(int64(len(buf))))
	c.f.readAt(off, buf)
	c.queueServerService([]Segment{{Off: off, Data: buf}})
}

// Sync flushes write-behind data to the servers and waits for it, the
// file-sync call the paper requires after every write when handshaking is
// used on a caching file system.
func (c *Client) Sync() {
	if c.cache == nil {
		return
	}
	segs := c.cache.takeDirty()
	if len(segs) == 0 {
		return
	}
	c.transferWrite(segs)
}

// Invalidate discards cached *clean* data so subsequent reads fetch fresh
// bytes from the servers — the cache-invalidation step the paper pairs with
// Sync for the handshaking strategies. Dirty write-behind data is not
// discarded; call Sync first.
func (c *Client) Invalidate() {
	if c.cache != nil {
		c.cache.invalidate()
	}
}

// DirtyBytes returns the amount of write-behind data not yet flushed.
func (c *Client) DirtyBytes() int64 {
	if c.cache == nil {
		return 0
	}
	return c.cache.dirtyBytes
}

// Close flushes any write-behind data and releases the handle.
func (c *Client) Close() error {
	c.Sync()
	return nil
}
