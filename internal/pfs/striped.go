package pfs

import (
	"cmp"
	"slices"
	"sort"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
)

// record is one write call's pieces on one server: their extents in file
// order and the rank each piece's data is from — the client's own, or the
// ones an aggregator names (Batch.Writers). seq is the store-wide order
// records were opened in: where records overlap, the higher seq owns the
// file's bytes.
type record struct {
	seq     int64
	ext     interval.List // ascending, disjoint
	writers []int         // the rank whose data each extent is
}

// writeCall is one write call on its way into the store: its open record
// on each server and what it has yet to store there, which sizes the next
// record it opens. A record takes the call's pieces only while no other
// call stores in between and while they ascend past its last extent; then
// the call opens a new one, later in seq, so interleaved writes still land
// piece by piece in arrival order.
type writeCall struct {
	rank int       // the client: its server in affinity mode
	open []*record // per server: the call's open record, or nil
	left []load    // per server: what the call has yet to store; its pieces size a record
}

// begin starts the call: client rank writes the extents ext.
func (call *writeCall) begin(cfg *Config, ext interval.List, rank int) {
	if call.open == nil {
		call.open, call.left = make([]*record, cfg.Servers), make([]load, cfg.Servers)
	}
	call.rank = rank
	clear(call.open)
	cfg.tally(call.left, ext, rank)
}

// stripedStore is the per-server content layout: the configured byte→server
// mapping routes storage as well as queueing, and every server keeps an
// append-only list of records. In RoundRobin mode a call's extents are cut
// at stripe boundaries, each piece stored on its home server; in
// ClientAffinity mode they land whole on the writer's boot-assigned server,
// so a byte may be stored on several servers. Either way owners replays the
// records in seq order — arrival order, as on one shared store — to find
// who wrote each byte.
type stripedStore struct {
	cfg     Config
	servers [][]*record
	seq     int64      // records opened so far
	last    *writeCall // the call that stored last
}

// eachStripePiece splits [off, off+n) at stripe boundaries and calls f with
// each piece and its round-robin home server. It is the single definition
// of the stripe→server map, shared by queue routing (Config.tally) and
// storage routing (stripedStore) — the two must never diverge.
func eachStripePiece(stripe int64, servers int, off, n int64, f func(server int, off, n int64)) {
	for n > 0 {
		take := min(n, stripe-off%stripe)
		f(int((off/stripe)%int64(servers)), off, take)
		off += take
		n -= take
	}
}

func (st *stripedStore) write(call *writeCall, e interval.Extent, src source) {
	if st.last != call {
		// Another call stored since this one last did: its records are
		// closed, so what follows lands after that call's pieces.
		st.last = call
		clear(call.open)
	}
	src.each(e, func(run interval.Extent, writer int) {
		if st.cfg.Mode == ClientAffinity {
			st.put(call, st.cfg.serverFor(run.Off, call.rank), run.Off, run.Len, writer)
			return
		}
		eachStripePiece(st.cfg.StripeSize, len(st.servers), run.Off, run.Len, func(server int, off, n int64) {
			st.put(call, server, off, n, writer)
		})
	})
}

// put stores the n-byte piece at off on server as writer's: in the call's
// open record there if the piece follows its last extent, else in a new
// record sized for the pieces the call has left to store on the server.
func (st *stripedStore) put(call *writeCall, server int, off, n int64, writer int) {
	left := &call.left[server]
	r := call.open[server]
	if r == nil || r.ext[len(r.ext)-1].End() > off {
		pieces := max(left.reqs, 1)
		r = &record{
			seq:     st.seq,
			ext:     make(interval.List, 0, pieces),
			writers: make([]int, 0, pieces),
		}
		st.seq++
		st.servers[server] = append(st.servers[server], r)
		call.open[server] = r
	}
	if k := len(r.ext) - 1; k >= 0 && r.ext[k].End() == off && r.writers[k] == writer {
		r.ext[k].Len += n
	} else {
		r.ext = append(r.ext, interval.Extent{Off: off, Len: n})
		r.writers = append(r.writers, writer)
	}
	left.reqs--
}

// inSeq returns every server's records, merged into seq order.
func (st *stripedStore) inSeq() []*record {
	var all []*record
	for _, recs := range st.servers {
		all = append(all, recs...)
	}
	slices.SortFunc(all, func(a, b *record) int { return cmp.Compare(a.seq, b.seq) })
	return all
}

// each calls f with every extent of r that overlaps q and the index of the
// extent, found by binary search.
func (r *record) each(q interval.Extent, f func(i int, part interval.Extent)) {
	for i := sort.Search(len(r.ext), func(i int) bool { return r.ext[i].End() > q.Off }); i < len(r.ext) && r.ext[i].Off < q.End(); i++ {
		f(i, r.ext[i].Intersect(q))
	}
}

// owners is index.Winners over the records in seq order — the latest record
// holding a byte owns it — with each run handed to the writers of the
// record's extents it spans, and touching runs of one rank joined.
func (st *stripedStore) owners() []index.Owned {
	recs := st.inSeq()
	lists := make([]interval.List, len(recs))
	for i, r := range recs {
		lists[i] = r.ext
	}
	runs := index.Winners(lists)
	out := make([]index.Owned, 0, len(runs))
	for _, run := range runs {
		r := recs[run.Rank]
		r.each(run.Extent, func(i int, part interval.Extent) {
			if n := len(out); n > 0 && out[n-1].Rank == r.writers[i] && out[n-1].End() == part.Off {
				out[n-1].Len += part.Len
				return
			}
			out = append(out, index.Owned{Extent: part, Rank: r.writers[i]})
		})
	}
	return out
}
