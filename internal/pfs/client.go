package pfs

import (
	"cmp"
	"errors"
	"slices"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim"
)

// Batch is one vectored request: the file extents it writes, in the order
// the request streams them, and whose data each one is. Every cost is
// computed from the extents, and a storing file system (Config.StoreData)
// keeps who wrote each byte; no byte of content travels.
//
// A batch is lent, not copied: its lists stay the caller's and are
// read-only to pfs, and the caller never writes a list it has lent. A
// storing file system keeps them as the call's record, as they stand.
type Batch struct {
	Ext interval.List
	// Writers, when non-nil, names for each extent the rank whose data it
	// carries: an aggregator writing on other ranks' behalf. Nil means
	// every extent is the writing client's own. A storing file system
	// keeps it (see FileSystem.Owners).
	Writers []int
}

// Slice returns the batch of extents [i, j).
func (b Batch) Slice(i, j int) Batch {
	s := Batch{Ext: b.Ext[i:j]}
	if b.Writers != nil {
		s.Writers = b.Writers[i:j]
	}
	return s
}

// writer returns the rank whose data extent i is, own unless Writers says.
func (b Batch) writer(i, own int) int {
	if b.Writers == nil {
		return own
	}
	return b.Writers[i]
}

// Client is one process's handle to a file. A client is owned by a single
// rank: it advances that rank's virtual clock as it charges I/O
// time and, with write-behind, holds that rank's private cache —
// which is exactly what makes concurrent overlapping I/O interesting.
type Client struct {
	fs    *FileSystem
	f     *file
	clock *sim.Clock
	rank  int
	cache cache // write-behind log, empty unless the file system writes behind

	bytesWritten int64

	// inAtomic marks a WriteAtomic in progress: the client already holds
	// the coordinator turn for the whole call, so inner server bookings
	// must not re-enter the coordinator (the turn is what serializes
	// atomic listio calls).
	inAtomic bool
}

// Open returns a client handle for rank on the named file, creating the
// file on first open. The clock is the rank's virtual clock.
func (fs *FileSystem) Open(name string, rank int, clock *sim.Clock) (*Client, error) {
	c := new(Client)
	if err := fs.OpenInto(c, name, rank, clock); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenInto is Open into a client the caller holds, such as a field of its
// own per-rank state, so that the handle is no object of its own.
func (fs *FileSystem) OpenInto(c *Client, name string, rank int, clock *sim.Clock) error {
	f, err := fs.lookup(name, true)
	if err != nil {
		return err
	}
	*c = Client{fs: fs, f: f, clock: clock, rank: rank}
	return nil
}

// Rank returns the owning rank.
func (c *Client) Rank() int { return c.rank }

// BytesWritten returns the total bytes this client has written (through
// cache or directly).
func (c *Client) BytesWritten() int64 { return c.bytesWritten }

// Write writes a vectored request: the lio_listio-style multi-extent write
// the paper discusses in §3.2. With write-behind caching enabled the batch
// is absorbed into the client cache at memory cost and reaches the servers
// at the next Sync; otherwise it is transferred immediately.
func (c *Client) Write(b Batch) {
	if c.fs.cfg.Cache.WriteBehind {
		total := c.cache.absorb(b)
		c.bytesWritten += total
		c.clock.Advance(c.fs.cfg.Cache.MemModel.Cost(total))
		return
	}
	total := b.Ext.TotalLen()
	c.bytesWritten += total
	c.transferWrite(b, nil, total)
}

// KeepsWriters reports whether the file keeps who wrote each byte
// (Config.StoreData): there a batch written on other ranks' behalf must
// name them in Writers.
func (c *Client) KeepsWriters() bool { return c.f.content != nil }

// transferWrite moves a batch of total bytes to the servers, charging
// client-side cost serially and queueing per-server service on the server
// pool. A flush passes the log its batch of coalesced extents was written
// as, and the log is stored, each batch as its own record in write order,
// so a client's later write wins an overlap; every other caller passes nil,
// and the batch is stored.
func (c *Client) transferWrite(b Batch, log []Batch, total int64) {
	if total == 0 {
		return
	}
	// Client-side: link transfer plus per-extra-extent processing.
	cost := c.fs.cfg.ClientModel.Cost(total)
	if n := len(b.Ext); n > 1 {
		cost += sim.VTime(n-1) * c.fs.cfg.SegOverhead
	}
	c.clock.Advance(cost)

	// Surrender the pieces routed to crashed servers: the client has paid
	// the link cost, but a down server neither stores nor serves them.
	b, log = c.dropFaulted(b, log)

	// Server-side: book each server at its piece's arrival, and store who
	// wrote each extent in the turn that books it.
	c.queueServerService(b, log)
}

// arrival returns when a piece the client sends at now reaches server:
// every server shares the client's link, so it is now itself, plus the
// per-(rank, server) offset tests may set (FileSystem.skew).
func (c *Client) arrival(server int, now sim.VTime) sim.VTime {
	if c.fs.skew == nil {
		return now
	}
	return now + c.fs.skew(c.rank, server)
}

// booking is the service a call asks of one server, and when it arrives.
type booking struct {
	server      int
	bytes, reqs int64
	at          sim.VTime
}

// tally lists, in (arrival, server) order, the servers the extents load
// when the client sends them at now, with the bytes and pieces each takes:
// whole extents on the client's server in affinity mode, stripe pieces on
// their home servers in round-robin mode. The list is the front of the
// file system's scratch.
func (c *Client) tally(ext interval.List, now sim.VTime) []booking {
	loads := c.fs.loads
	clear(loads)
	walk := c.fs.cfg.walk(c.rank)
	for _, e := range ext {
		for off, n := e.Off, e.Len; n > 0; {
			server, take := walk.piece(off, n)
			loads[server].bytes += take
			loads[server].reqs++
			off, n = off+take, n-take
		}
	}
	list := loads[:0] // entry k is written only after it is read
	for server, l := range loads {
		if l.reqs > 0 {
			l.server, l.at = server, c.arrival(server, now)
			list = append(list, l)
		}
	}
	slices.SortStableFunc(list, func(x, y booking) int { return cmp.Compare(x.at, y.at) })
	return list
}

// queueServerService books per-server FCFS service for the batch, each
// server at its piece's arrival, and advances the client clock to the last
// completion. At each distinct arrival of its loaded servers, from the
// first, it takes the coordinator turn, so every server takes the pieces in
// (arrival, rank) order, books the servers arriving then and stores their
// pieces: the file's write log is in the order each server completes them.
func (c *Client) queueServerService(b Batch, log []Batch) {
	now := c.clock.Now()
	// Without FileSystem.skew every piece arrives now: the call tallies in its
	// one turn. With it, the call tallies before its first turn, to find it,
	// and keeps a copy, as other clients tally while it yields.
	var list []booking
	if c.fs.skew != nil {
		list = slices.Clone(c.tally(b.Ext, now))
	}
	split := len(list) > 0 && list[0].at != list[len(list)-1].at
	group := log
	if log == nil {
		group = []Batch{b}
	}
	t, latest := now, sim.VTime(0)
	for {
		if len(list) > 0 {
			t = list[0].at // the next arrival; now if every piece was dropped
		}
		if !c.inAtomic {
			c.fs.coord.Await(c.rank, t)
		}
		if c.fs.skew == nil {
			list = c.tally(b.Ext, now)
		}
		for ; len(list) > 0 && list[0].at == t; list = list[1:] {
			s := list[0]
			m := c.fs.serverModel(s.server)
			svc := sim.VTime(s.reqs)*m.Latency + sim.LinearCost{BytesPerSec: m.BytesPerSec}.Cost(s.bytes)
			c.fs.stats[s.server].requests += s.reqs
			c.fs.stats[s.server].bytes += s.bytes
			start, end := c.fs.servers.Member(s.server).Acquire(t, svc)
			if o := c.fs.obs; o != nil {
				depth := c.fs.noteBooking(s.server, t, end)
				// One span from the arrival at the queue to the end of
				// service; Aux is the service start.
				o.Emit(obs.Event{
					T: t, Actor: c.rank, Layer: obs.LayerPFS, Kind: obs.KindServe,
					Peer: s.server, Size: s.bytes, Dur: end - t, Aux: int64(start),
				})
				o.Count(c.rank, obs.MetricPFSReqs, s.reqs)
				o.Observe(c.rank, obs.MetricPFSService, int64(end-start))
				o.MaxGauge(c.rank, obs.MetricQueueDepth, depth)
			}
			latest = max(latest, end)
		}
		// A call split over several instants stores, at each, only the
		// pieces arriving then. Such a call is striped, so each byte lives
		// on one server, and "last covering record wins" still holds.
		for _, g := range group {
			if split {
				g, _ = c.pieces(g, func(server int) bool { return c.arrival(server, now) == t })
			}
			c.f.store(g, c.rank)
		}
		if len(list) == 0 {
			break
		}
	}
	c.clock.AdvanceTo(latest)
}

// ErrNoAtomicListIO is returned by WriteAtomic on file systems without the
// atomic vectored-write capability.
var ErrNoAtomicListIO = errors.New("pfs: file system does not provide atomic listio")

// WriteAtomic performs a vectored write that is atomic with respect to
// every other WriteAtomic on the same file — the lio_listio-with-POSIX-
// atomicity capability of the paper's §3.2. It bypasses the write-behind
// cache (the data must be committed as one unit) and serializes with other
// atomic vectored writes in virtual time. The call holds the coordinator
// turn throughout: where its servers' arrivals differ, each group of
// servers books at its own arrival without yielding the turn.
func (c *Client) WriteAtomic(b Batch) error {
	if !c.fs.cfg.AtomicListIO {
		return ErrNoAtomicListIO
	}
	// Take the coordinator turn for the whole atomic call: admission order
	// determines the serialization of atomic vectored writes, and nothing
	// inside the call yields the turn, so its extent stores are
	// indivisible.
	c.fs.coord.Await(c.rank, c.clock.Now())
	c.inAtomic = true
	defer func() { c.inAtomic = false }()
	// Queue behind earlier atomic vectored writes in virtual time.
	c.clock.AdvanceTo(c.f.listioFreeAt)
	total := b.Ext.TotalLen()
	c.bytesWritten += total
	c.transferWrite(b, nil, total)
	c.f.listioFreeAt = c.clock.Now()
	return nil
}

// Sync flushes write-behind data to the servers and waits for it, the
// file-sync call the paper requires after every write when handshaking is
// used on a caching file system.
func (c *Client) Sync() {
	b, log, total := c.cache.takeDirty()
	defer clear(log) // the cache's hold on the caller's batches ends with the flush
	c.transferWrite(b, log, total)
}

// Close flushes any write-behind data and releases the handle.
func (c *Client) Close() error {
	c.Sync()
	return nil
}

// Segment is one contiguous piece of a vectored request in the form WriteV
// takes: len(Data) bytes at Off. WriteV reads the length alone.
type Segment struct {
	Off  int64
	Data []byte
}

// WriteV is Write for a request given as segments: the batch of their
// extents, each len(Data) bytes long.
func (c *Client) WriteV(segs []Segment) {
	b := Batch{Ext: make(interval.List, len(segs))}
	for i, s := range segs {
		b.Ext[i] = interval.Extent{Off: s.Off, Len: int64(len(s.Data))}
	}
	c.Write(b)
}
