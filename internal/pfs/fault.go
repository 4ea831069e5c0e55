package pfs

import (
	"slices"
	"sort"

	"atomio/internal/interval"
	"atomio/internal/obs"
	"atomio/internal/sim/fault"
)

// This file is the file system's failure-injection and recovery surface.
//
// Injected server crashes act at the write path: a write piece routed to a
// server whose drop window is open at the piece's virtual time is
// discarded — nothing stored, no service booked — and its extent is
// recorded in the file's damage list. The decision is a pure function of
// the writing client's own clock and the script, so faulted runs stay
// byte-identical across engines.
//
// Recovery is the write-ahead/replay path: with Config.WAL on, collective
// writes log their full mapped request per rank before touching the
// servers, and Recover replays — in ascending rank order — every logged
// intent whose extents intersect the damage, writing directly into the
// store (the servers have restarted). Replaying full intents rather than
// clipping to the damage is what keeps the result serializable: the final
// file equals "every non-replayed writer in its original serialization
// order, then the replayed writers in rank order", which is a serial
// schedule of the original requests. Recovery happens after the simulated
// run and charges no virtual time.

// SetFault arms the failure-injection script for this run. Call before the
// run starts (alongside SetCoord); nil disarms.
func (fs *FileSystem) SetFault(in *fault.Injector) { fs.fault = in }

// dropFaulted partitions a write request over its target servers and
// removes the pieces routed to servers that are down at the client's
// current virtual time, recording their extents as damage. The decision is
// made at the client clock, not at each piece's arrival. A surviving piece
// keeps its extent's writer. A flush passes the log it coalesced b from and
// gets it back with the same pieces removed from every logged batch. A call
// none of whose pieces lies on a down server returns b and log as they
// stand, uncopied: a record is not per server, so cutting it into stripe
// pieces would change no owner. b holds every byte of its log, so its
// pieces alone decide.
func (c *Client) dropFaulted(b Batch, log []Batch) (Batch, []Batch) {
	in, now := c.fs.fault, c.clock.Now()
	if in == nil || !in.ServerDownAt(now) {
		return b, log
	}
	up := func(server int) bool { return !in.ServerDropped(server, now) }
	if c.allOn(b.Ext, up) {
		return b, log
	}
	b, damaged := c.pieces(b, up)
	if log != nil {
		log = slices.Clone(log)
		for i := range log {
			log[i], _ = c.pieces(log[i], up)
		}
	}
	if o := c.fs.obs; o != nil {
		for _, e := range damaged {
			o.Emit(obs.Event{
				T: now, Actor: c.rank, Layer: obs.LayerFault, Kind: obs.KindDrop,
				Peer: -1, Off: e.Off, Len: e.Len,
			})
		}
		o.Count(c.rank, obs.MetricFaultPrefix+obs.KindDrop, int64(len(damaged)))
	}
	c.f.recordDamage(damaged)
	return b, log
}

// allOn reports whether every piece of ext lies on a server on accepts; it
// stops at the first that does not.
func (c *Client) allOn(ext interval.List, on func(server int) bool) bool {
	walk := c.fs.cfg.walk(c.rank)
	for _, e := range ext {
		for off, n := e.Off, e.Len; n > 0; {
			server, take := walk.piece(off, n)
			if !on(server) {
				return false
			}
			off, n = off+take, n-take
		}
	}
	return true
}

// pieces splits b at its servers: it returns, as a batch, the pieces routed
// to servers that on accepts, each with its extent's writer (empty extents
// kept), and the extents of the other pieces.
func (c *Client) pieces(b Batch, on func(server int) bool) (Batch, interval.List) {
	out := Batch{Ext: make(interval.List, 0, len(b.Ext))}
	// keep adds the part p of extent i.
	keep := func(i int, p interval.Extent) {
		out.Ext = append(out.Ext, p)
		if b.Writers != nil {
			out.Writers = append(out.Writers, b.Writers[i])
		}
	}
	var rest interval.List
	walk := c.fs.cfg.walk(c.rank) // the walk that routes queueing and storage
	for i, e := range b.Ext {
		if e.Empty() {
			keep(i, e)
			continue
		}
		for off, n := e.Off, e.Len; n > 0; {
			server, take := walk.piece(off, n)
			if p := (interval.Extent{Off: off, Len: take}); on(server) {
				keep(i, p)
			} else {
				rest = append(rest, p)
			}
			off, n = off+take, n-take
		}
	}
	return out, rest
}

// Damage records extents as damaged without writing them — the hook a
// crashed writer's unwritten remainder is reported through, so recovery
// knows which ranks' intents to replay.
func (c *Client) Damage(exts interval.List) {
	if len(exts) == 0 {
		return
	}
	if o := c.fs.obs; o != nil {
		now := c.clock.Now()
		for _, e := range exts {
			o.Emit(obs.Event{
				T: now, Actor: c.rank, Layer: obs.LayerFault, Kind: obs.KindCrash,
				Peer: -1, Off: e.Off, Len: e.Len,
			})
		}
		o.Count(c.rank, obs.MetricFaultPrefix+obs.KindCrash, int64(len(exts)))
	}
	c.f.recordDamage(exts)
}

// recordDamage appends extents to the file's damage list. Recover reads
// it normalized, so the result is independent of the order clients record
// in.
func (f *file) recordDamage(exts interval.List) {
	f.damage = append(f.damage, exts...)
}

// LogIntent appends rank's full mapped write request to the named file's
// write-ahead intent log. The batch's extents are cloned — the caller's are
// lent for the call — and replay writes them as rank's. A no-op unless
// Config.WAL is on, so healthy configurations pay nothing.
func (fs *FileSystem) LogIntent(name string, rank int, b Batch) error {
	if !fs.cfg.WAL {
		return nil
	}
	f, err := fs.lookup(name, true)
	if err != nil {
		return err
	}
	if f.intents == nil {
		f.intents = make(map[int][]Batch)
	}
	f.intents[rank] = append(f.intents[rank], Batch{Ext: slices.Clone(b.Ext)})
	return nil
}

// Recover replays the named file's write-ahead log over its fault damage:
// every rank whose logged intents intersect a damaged extent has its full
// intents rewritten, in ascending rank order, directly into the store. It
// returns the replayed ranks (nil when there is no damage or no
// intersecting intent). The log is keyed and ordered by rank, so the
// replay — and therefore the recovered file — is deterministic.
func (fs *FileSystem) Recover(name string) ([]int, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return nil, err
	}
	damaged := f.damage.Normalize()
	if len(damaged) == 0 {
		return nil, nil
	}
	ranks := make([]int, 0, len(f.intents))
	for rank := range f.intents {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	var replayed []int
	for _, rank := range ranks {
		if !intentsIntersect(f.intents[rank], damaged) {
			continue
		}
		for _, b := range f.intents[rank] {
			f.store(b, rank)
		}
		replayed = append(replayed, rank)
	}
	return replayed, nil
}

// intentsIntersect reports whether any logged extent overlaps any damaged
// extent.
func intentsIntersect(intents []Batch, damaged interval.List) bool {
	for _, b := range intents {
		for _, e := range b.Ext {
			for _, d := range damaged {
				if e.Overlaps(d) {
					return true
				}
			}
		}
	}
	return false
}
