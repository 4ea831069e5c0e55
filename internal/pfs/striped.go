package pfs

import (
	"cmp"
	"slices"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
)

// serverStore is one I/O server's private slice of a file's bytes: its own
// sparse chunk store (round-robin mode) or write records (affinity mode)
// and written-extent index. Per-server structures stay a factor of Servers
// smaller than the shared store's.
type serverStore struct {
	chunks  map[int64][]byte
	written index.Set
	// segs holds every live affinity-mode write landed on this server, by
	// extent. A server stores whatever its clients touch, anywhere in the
	// file, so it keeps each write's bytes rather than a chunk grid it
	// would fill sparsely. Unused in round-robin mode, where a byte has
	// exactly one home server.
	segs index.Index[affinityWrite]
}

// affinityWrite is one affinity-mode write as its server keeps it: the
// store-wide sequence number cross-server merge reads resolve overlaps
// with, and the server's own copy of the bytes, never written again.
type affinityWrite struct {
	seq  int64
	data []byte
}

// stripedStore is the per-server content layout: the configured byte→server
// mapping routes storage as well as queueing.
//
// In RoundRobin mode the stripes partition the byte space — every byte has
// exactly one home server — so writes scatter and reads gather stripe
// pieces, and the split is semantics-preserving by construction: each
// server's store holds exactly the shared store's bytes for its stripes,
// overlapping writes to a byte meet in that byte's home server and land in
// arrival order, exactly as in the shared store.
//
// In ClientAffinity mode a write lands wholly on the writer's boot-assigned
// server, so the same byte may be stored on several servers (one per
// writer). Every write takes a store-wide sequence number, and a read
// merges across all servers: it gathers the overlapping write records and
// replays their bytes in sequence order — the cross-server merge that makes
// the layout observably identical to the shared store, where the same
// writes land in the same (sequence) order on one store.
//
// File size and written extents are resolved by cheap cross-server merges:
// size stays file-level (see file), extents are the normalized union of the
// per-server indexes.
type stripedStore struct {
	mode     StripeMode
	stripe   int64
	affinity []int
	servers  []*serverStore
	nextSeq  int64
}

func newStripedStore(cfg Config) *stripedStore {
	st := &stripedStore{
		mode:     cfg.Mode,
		stripe:   cfg.StripeSize,
		affinity: cfg.Affinity,
		servers:  make([]*serverStore, cfg.Servers),
	}
	for i := range st.servers {
		st.servers[i] = &serverStore{chunks: make(map[int64][]byte)}
	}
	return st
}

// serverForRank is the affinity-mode rank→server map (mirrors
// FileSystem.serverFor; duplicated so the store stays self-contained).
func (st *stripedStore) serverForRank(rank int) int {
	if len(st.affinity) > 0 {
		return st.affinity[rank%len(st.affinity)]
	}
	return rank % len(st.servers)
}

// eachStripePiece splits [off, off+n) at stripe boundaries and calls f with
// each piece and its round-robin home server. It is the single definition
// of the stripe→server map, shared by queue routing
// (Client.queueServerService) and storage routing (stripedStore) — the two
// must never diverge.
func eachStripePiece(stripe int64, servers int, off, n int64, f func(server int, off, n int64)) {
	for n > 0 {
		inStripe := stripe - off%stripe
		take := n
		if take > inStripe {
			take = inStripe
		}
		f(int((off/stripe)%int64(servers)), off, take)
		off += take
		n -= take
	}
}

func (st *stripedStore) write(e interval.Extent, src source, rank int) {
	if st.mode == ClientAffinity {
		sv := st.servers[st.serverForRank(rank)]
		// Sequence order is arrival order, which is what lets merge reads
		// treat "highest sequence" and "latest arrival" as the same thing.
		seq := st.nextSeq
		st.nextSeq++
		sv.written.Add(e)
		// Prune dead records: an older same-server record fully inside e
		// can never win a merge again — its sequence is lower wherever it
		// lies — so the index and the bytes it holds stay proportional to
		// the live (visible) write extents, not to write history.
		type deadRec struct {
			ext interval.Extent
			h   index.Handle
		}
		var dead []deadRec
		sv.segs.Overlapping(e, func(ext interval.Extent, h index.Handle, _ affinityWrite) bool {
			if e.ContainsExtent(ext) {
				dead = append(dead, deadRec{ext: ext, h: h})
			}
			return true
		})
		for _, d := range dead {
			sv.segs.Delete(d.ext, d.h)
		}
		// The record is the server's own copy, assembled from src.
		data := make([]byte, e.Len)
		src.each(e, func(off int64, run []byte) { copy(data[off-e.Off:], run) })
		sv.segs.Insert(e, affinityWrite{seq: seq, data: data})
		return
	}
	src.each(e, func(off int64, run []byte) {
		eachStripePiece(st.stripe, len(st.servers), off, int64(len(run)), func(server int, pieceOff, n int64) {
			chunkWrite(st.servers[server].chunks, pieceOff, run[pieceOff-off:pieceOff-off+n])
		})
	})
	eachStripePiece(st.stripe, len(st.servers), e.Off, e.Len, func(server int, off, n int64) {
		st.servers[server].written.Add(interval.Extent{Off: off, Len: n})
	})
}

func (st *stripedStore) read(off int64, buf []byte) {
	if st.mode == ClientAffinity {
		st.mergeRead(off, buf)
		return
	}
	eachStripePiece(st.stripe, len(st.servers), off, int64(len(buf)), func(server int, pieceOff, n int64) {
		sv := st.servers[server]
		coveredRead(&sv.written, sv.chunks, pieceOff, buf[pieceOff-off:pieceOff-off+n])
	})
}

// mergeRead is the affinity-mode scatter-gather: collect the part of every
// server's write records that overlaps the request and copy them into buf
// in global sequence order, so the last copy into any byte is the globally
// latest write — the shared store's arrival-order semantics. A record that
// a later write only partly covers replays its stale bytes too; the later
// write's higher sequence puts them right.
func (st *stripedStore) mergeRead(off int64, buf []byte) {
	clear(buf)
	req := interval.Extent{Off: off, Len: int64(len(buf))}
	type rec struct {
		seq  int64
		off  int64 // relative to the request
		data []byte
	}
	var recs []rec
	for _, sv := range st.servers {
		sv.segs.Overlapping(req, func(e interval.Extent, _ index.Handle, w affinityWrite) bool {
			part := e.Intersect(req)
			recs = append(recs, rec{seq: w.seq, off: part.Off - off, data: w.data[part.Off-e.Off : part.End()-e.Off]})
			return true
		})
	}
	slices.SortFunc(recs, func(a, b rec) int { return cmp.Compare(a.seq, b.seq) })
	for _, r := range recs {
		copy(buf[r.off:], r.data)
	}
}

func (st *stripedStore) extents() interval.List {
	var all interval.List
	for _, sv := range st.servers {
		all = append(all, sv.written.Extents()...)
	}
	return all.Normalize()
}
