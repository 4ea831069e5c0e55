// Package pfs simulates the parallel file systems the paper evaluates on
// (ENFS on ASCI Cplant, SGI XFS, IBM GPFS): a set of I/O servers serving a
// shared striped file, accessed by per-process clients that may cache
// writes behind, one of the two policies the paper discusses in §3.
//
// With Config.StoreData on, every file keeps who wrote each byte, so
// atomicity violations are observable in the file; requests carry extents
// and writers, never content (see Batch). It accounts virtual time
// on the clients' clocks and on per-server FCFS queues (see package sim),
// from byte counts alone. Aggregate bandwidth
// reported by the experiment harness is data volume divided by the virtual
// makespan.
package pfs

import (
	"fmt"
	"math"
	"sort"

	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// StripeMode selects how file bytes map to I/O servers.
type StripeMode int

const (
	// RoundRobin stripes the file across all servers in StripeSize units,
	// as GPFS and striped scratch file systems do.
	RoundRobin StripeMode = iota
	// ClientAffinity binds each client to the single server its node was
	// assigned at boot, as Cplant's ENFS does ("each compute node is
	// mapped to one of the I/O servers in a round-robin selection scheme
	// at boot time").
	ClientAffinity
)

// String names the mode.
func (m StripeMode) String() string {
	switch m {
	case RoundRobin:
		return "round-robin"
	case ClientAffinity:
		return "client-affinity"
	default:
		return fmt.Sprintf("StripeMode(%d)", int(m))
	}
}

// Config describes a simulated file system instance.
type Config struct {
	// Servers is the number of I/O servers. Must be >= 1.
	Servers int
	// StripeSize is the striping unit in bytes for RoundRobin mode.
	StripeSize int64
	// Mode selects the byte-to-server mapping.
	Mode StripeMode

	// ServerModel is the per-request service cost charged on a server's
	// queue (request handling latency plus bytes at the server's disk or
	// RAID bandwidth).
	ServerModel sim.LinearCost
	// ClientModel is the per-request cost charged serially at the client
	// (network link plus client-side request processing).
	ClientModel sim.LinearCost
	// SegOverhead is the extra client-side cost per additional
	// non-contiguous segment in a vectored request — the per-row cost
	// that dominates the column-wise pattern.
	SegOverhead sim.VTime

	// StoreData keeps who wrote each byte of every file — write records
	// of extents and writers (see FileSystem.EachRecord). Off, a file
	// keeps no record of its writes.
	StoreData bool

	// WAL enables the per-file write-ahead intent log: collective writes
	// log their full mapped request before touching the servers, and
	// Recover replays logged intents over fault damage (see fault.go).
	// Off by default — healthy runs pay no logging cost.
	WAL bool

	// AtomicListIO grants the file system the hypothetical capability the
	// paper discusses in §3.2: POSIX atomicity extended to
	// lio_listio-style vectored requests. When set, Client.WriteAtomic
	// executes a whole multi-segment write atomically with respect to
	// every other atomic vectored write on the same file (the file system
	// internally serializes such calls). No 2003 file system provided
	// this; it exists here to evaluate the paper's "if POSIX atomicity is
	// extended to lio_listio(), the MPI atomicity can be guaranteed"
	// observation.
	AtomicListIO bool

	// Cache configures the per-client write-behind cache. A zero value
	// disables it (every request goes to the servers).
	Cache CacheConfig

	// Degraded overrides the service model of individual servers (index →
	// model), the per-server perturbation hook behind slow-server
	// scenarios. Entries must be non-nil and in [0, Servers). A run with
	// degraded servers is explicitly non-comparable to the healthy
	// simulator output.
	Degraded map[int]*sim.LinearCost

	// Affinity overrides ClientAffinity's boot-time rank→server map:
	// client rank r is served by Affinity[r % len(Affinity)]. Empty keeps
	// the round-robin assignment r % Servers. Entries must be in
	// [0, Servers). Skewed maps model a hot server absorbing a
	// disproportionate share of the clients.
	Affinity []int
}

func (c Config) withDefaults() Config {
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.StripeSize == 0 {
		c.StripeSize = 64 << 10
	}
	return c
}

// Validate reports whether the configuration (after defaulting of zero
// Servers and StripeSize) describes a constructible file system. It is the
// non-panicking counterpart of New's setup check, for callers assembling
// configs from external input.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

func (c Config) validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("pfs: Servers must be >= 1, got %d", c.Servers)
	}
	if c.Mode == RoundRobin && c.StripeSize < 1 {
		return fmt.Errorf("pfs: StripeSize must be >= 1 in round-robin mode, got %d", c.StripeSize)
	}
	// Check degraded entries in ascending server order so a config with
	// several bad entries always reports the same one.
	degraded := make([]int, 0, len(c.Degraded))
	for server := range c.Degraded {
		degraded = append(degraded, server)
	}
	sort.Ints(degraded)
	for _, server := range degraded {
		if server < 0 || server >= c.Servers {
			return fmt.Errorf("pfs: degraded server %d out of range [0, %d)", server, c.Servers)
		}
		if c.Degraded[server] == nil {
			return fmt.Errorf("pfs: degraded server %d has a nil cost model", server)
		}
	}
	for i, server := range c.Affinity {
		if server < 0 || server >= c.Servers {
			return fmt.Errorf("pfs: affinity entry %d maps to server %d, out of range [0, %d)",
				i, server, c.Servers)
		}
	}
	return nil
}

// FileSystem is one simulated parallel file system instance shared by every
// client of a run.
type FileSystem struct {
	cfg     Config
	servers *sim.Pool
	models  []sim.LinearCost // per-server service models (Degraded applied)
	stats   []serverCounter  // per-server request/byte counters
	loads   []booking        // queueServerService scratch, one per server
	coord   sim.Coord
	fault   *fault.Injector // nil on healthy runs
	obs     *obs.Recorder   // nil unless event tracing is on

	// skew, when set, delays the arrival of rank's pieces at server by
	// skew(rank, server) >= 0 (see Client.arrival): a seam only tests
	// set, to give servers different arrival orders.
	skew func(rank, server int) sim.VTime

	// qdPending tracks, per server, the end times of bookings not yet
	// finished — the live queue-depth gauge. Ends are monotone per server
	// (sim.Resource's free time only grows), so a FIFO suffices. Only
	// touched when obs is armed.
	qdPending [][]sim.VTime

	files map[string]*file
}

// serverCounter accumulates one server's traffic.
type serverCounter struct {
	bytes    int64
	requests int64
}

// New creates a file system, or returns an error describing why the
// configuration is invalid.
func New(cfg Config) (*FileSystem, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	models := make([]sim.LinearCost, cfg.Servers)
	for i := range models {
		models[i] = cfg.ServerModel
		if m := cfg.Degraded[i]; m != nil {
			models[i] = *m
		}
	}
	return &FileSystem{
		cfg:     cfg,
		servers: sim.NewPool("ioserver", cfg.Servers),
		models:  models,
		stats:   make([]serverCounter, cfg.Servers),
		loads:   make([]booking, cfg.Servers),
		coord:   sim.Solo{},
		files:   make(map[string]*file),
	}, nil
}

// Config returns the file system's configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// SetCoord routes server-queue bookings through the run's coordinator (see
// sim.Coord); client ranks double as coordinator actor ids. Call before the
// run starts. Until then the file system serves clients that never overlap
// in execution (sim.Solo).
func (fs *FileSystem) SetCoord(c sim.Coord) { fs.coord = c }

// SetObs arms event tracing and the queue-depth gauge. Call before the run
// starts (alongside SetCoord); nil disarms. pfs events put the server index
// in Peer.
func (fs *FileSystem) SetObs(o *obs.Recorder) {
	fs.obs = o
	if o != nil && fs.qdPending == nil {
		fs.qdPending = make([][]sim.VTime, fs.cfg.Servers)
	}
}

// noteBooking records one server booking ending at end, retires bookings
// finished by now, and returns the resulting queue depth (this booking
// included). Bookings are admitted in deterministic virtual-time order in
// coordinated runs, so the depth sequence is deterministic too.
func (fs *FileSystem) noteBooking(server int, now, end sim.VTime) int64 {
	q := fs.qdPending[server]
	for len(q) > 0 && q[0] <= now {
		q = q[1:]
	}
	q = append(q, end)
	fs.qdPending[server] = q
	return int64(len(q))
}

// lookup returns the named file, creating it if requested.
func (fs *FileSystem) lookup(name string, create bool) (*file, error) {
	f, ok := fs.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("pfs: file %q does not exist", name)
		}
		f = fs.newFile()
		fs.files[name] = f
	}
	return f, nil
}

// serverWalk splits a list's extents, in order, into the pieces each
// server holds: the one byte→server map, shared by queue routing (tally)
// and the fault filter (dropFaulted). A round-robin walk divides only for
// an extent that starts past the next stripe; in ClientAffinity mode its
// one stripe is the whole file, on the client's server.
type serverWalk struct {
	size    int64
	servers int
	end     int64 // the end of the stripe the walk is in
	server  int   // that stripe's home server
}

// walk starts rank's walk; a round-robin one in stripe −1, homed on the
// last server.
func (c *Config) walk(rank int) serverWalk {
	if c.Mode != ClientAffinity {
		return serverWalk{size: c.StripeSize, servers: c.Servers, server: c.Servers - 1}
	}
	w := serverWalk{size: math.MaxInt64, end: math.MaxInt64, server: rank % c.Servers}
	if len(c.Affinity) > 0 {
		w.server = c.Affinity[rank%len(c.Affinity)]
	}
	return w
}

// piece returns the first piece of [off, off+n), n > 0: server and length.
func (w *serverWalk) piece(off, n int64) (server int, take int64) {
	if uint64(off-(w.end-w.size)) >= uint64(w.size) { // off is outside the walk's stripe
		w.seek(off)
	}
	return w.server, min(n, w.end-off)
}

// seek moves the walk to the stripe holding off.
func (w *serverWalk) seek(off int64) {
	if uint64(off-w.end) < uint64(w.size) { // the next stripe, on the next server
		w.end += w.size
		if w.server++; w.server == w.servers {
			w.server = 0
		}
		return
	}
	k := off / w.size
	w.server, w.end = int(k%int64(w.servers)), (k+1)*w.size
}

// serverModel returns the service cost model of one server — the uniform
// ServerModel unless the server is degraded.
func (fs *FileSystem) serverModel(server int) sim.LinearCost {
	return fs.models[server]
}

// ServerStats is one I/O server's accumulated traffic and queue state: the
// per-server observability layer behind the degraded-server scenarios.
type ServerStats struct {
	// Server is the server index.
	Server int
	// Requests is the number of service requests booked on the server
	// (segments after stripe splitting, not client calls).
	Requests int64
	// Bytes is the data volume moved through the server.
	Bytes int64
	// Busy is the total virtual service time charged on the server's
	// queue; Busy/makespan is the server's occupancy.
	Busy sim.VTime
	// FreeAt is the virtual time at which the server's queue drains.
	FreeAt sim.VTime
}

// ServerStats returns every server's statistics, in server order.
func (fs *FileSystem) ServerStats() []ServerStats {
	out := make([]ServerStats, fs.cfg.Servers)
	for i := range out {
		_, busy := fs.servers.Member(i).Stats()
		out[i] = ServerStats{
			Server:   i,
			Requests: fs.stats[i].requests,
			Bytes:    fs.stats[i].bytes,
			Busy:     busy,
			FreeAt:   fs.servers.Member(i).FreeAt(),
		}
	}
	return out
}
