package pfs

import (
	"cmp"
	"slices"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// content is the storage layer of one file — who wrote each byte: a
// writeLog in production. The pfs tests pin it against a second
// implementation, a flat array of each byte's writer: on any configuration
// the owners are identical.
type content interface {
	open(runs int)                                    // starts the next call's writes, about runs of them
	put(run interval.Extent, writer int)              // run is writer's, as the call's next run
	lend(ext interval.List, writer int)               // ext, canonical and never written again, is a whole call of writer's
	owners(visit func(run interval.Extent, rank int)) // file-ordered runs of the rank that wrote last
}

// file is one file's server-side state: its size, its content store (nil for
// data-less runs), and the atomic-listio serialization point.
type file struct {
	name    string
	size    int64
	content content

	// listioFreeAt is the virtual time at which the file's atomic-listio
	// facility next becomes idle.
	listioFreeAt sim.VTime

	// Fault bookkeeping (see fault.go): damage is the set of byte ranges
	// surrendered to injected faults, intents the write-ahead log that
	// Recover replays over them. Both stay empty on healthy runs.
	damage  index.Set
	intents map[int][]Batch
}

// newFile creates a file that keeps a write log if the file system stores
// data.
func (fs *FileSystem) newFile(name string) *file {
	f := &file{name: name}
	if fs.cfg.StoreData {
		f.content = new(writeLog)
	}
	return f
}

// growTo extends the file size to end if it is shorter.
func (f *file) growTo(end int64) {
	f.size = max(f.size, end)
}

// source is where a flushed extent is stored from: the logged pieces of
// the coalesced extent that holds it, in write order.
type source []piece

// each calls f with the runs of e in ascending file order and the rank
// whose data each is. Where logged pieces overlap, the run is cut from the
// one written last: a flush stores what its client wrote last.
func (s source) each(e interval.Extent, f func(run interval.Extent, writer int)) {
	clip := func(p piece) interval.Extent {
		return e.Intersect(interval.Extent{Off: p.off, Len: p.n})
	}
	emit := func(run interval.Extent, p piece) {
		if !run.Empty() {
			f(run, p.writer)
		}
	}
	ascending := true
	for k := 1; k < len(s); k++ {
		ascending = ascending && s[k-1].off+s[k-1].n <= s[k].off
	}
	if ascending {
		for _, p := range s {
			emit(clip(p), p)
		}
		return
	}
	// Later pieces win: walk them newest first, each keeping what no later
	// one covers, then store the runs kept in file order.
	var covered index.Set
	runs := make([]index.Owned, 0, len(s)) // a run and the piece it is cut from
	for k := len(s) - 1; k >= 0; k-- {
		run := clip(s[k])
		covered.Visit(run, func(part interval.Extent, done bool) bool {
			if !done {
				runs = append(runs, index.Owned{Extent: part, Rank: k})
			}
			return true
		})
		covered.Add(run)
	}
	slices.SortFunc(runs, func(a, b index.Owned) int { return cmp.Compare(a.Off, b.Off) })
	for _, run := range runs {
		emit(run.Extent, s[run.Rank])
	}
}

// store writes b as client rank's call and extends the file size; a
// write-behind flush passes the log its coalesced extents are assembled
// from. A file without a content store only grows; one with a store keeps
// who wrote each extent, in one record per call. A call that is one
// canonical list of rank's own extents is lent to the store as it stands.
func (f *file) store(b Batch, log *assembly, rank int) {
	lent := f.content != nil && log == nil && b.Writers == nil && b.Ext.IsCanonical()
	switch {
	case lent:
		f.content.lend(b.Ext, rank)
	case f.content != nil && log != nil:
		f.content.open(len(log.pieces))
	case f.content != nil:
		f.content.open(len(b.Ext))
	}
	for i, e := range b.Ext {
		if e.Empty() {
			continue
		}
		f.growTo(e.End())
		switch {
		case f.content == nil || lent:
		case log != nil:
			log.source(e).each(e, f.content.put)
		default:
			f.content.put(e, b.writer(i, rank))
		}
	}
}

// record is one write call's runs in file order and the rank each run's
// data is from — the client's own, or the ones an aggregator names
// (Batch.Writers).
type record struct {
	ext     interval.List // ascending, disjoint
	writers []int         // the rank whose data each extent is; nil when all are writer's
	writer  int
}

// writeLog is the append-only log of a file's write records, in the order
// their calls booked the servers. Every server is a FCFS queue and a call
// books all of its servers in one coordinator turn, so that is the order
// the calls complete in on every server they share: where records overlap,
// the later one owns the file's bytes.
type writeLog []record

func (l *writeLog) open(runs int) {
	*l = append(*l, record{ext: make(interval.List, 0, runs), writers: make([]int, 0, runs)})
}

// lend appends ext as a whole call's record, uncopied; put never grows it.
func (l *writeLog) lend(ext interval.List, writer int) {
	*l = append(*l, record{ext: ext, writer: writer})
}

// put appends run to the newest record, or — if run does not ascend past
// its last extent — to a new record after it, so a call's overlapping runs
// land in the order it wrote them. Only the newest record grows, so the
// new one takes the room the call's record has left.
func (l *writeLog) put(run interval.Extent, writer int) {
	r := &(*l)[len(*l)-1]
	k := len(r.ext) - 1
	switch {
	case k < 0:
	case r.ext[k].End() > run.Off:
		*l = append(*l, record{ext: r.ext[k+1:], writers: r.writers[k+1:]})
		r = &(*l)[len(*l)-1]
	case r.ext[k].End() == run.Off && r.writers[k] == writer:
		r.ext[k].Len += run.Len
		return
	}
	r.ext = append(r.ext, run)
	r.writers = append(r.writers, writer)
}

// owners streams index.EachWinner over the log — the latest record holding
// a byte owns it — with each run handed to the writers of the record's
// extents it spans, and touching runs of one rank joined. A record's runs
// arrive in file order, so one cursor per record walks its extents.
func (l writeLog) owners(visit func(run interval.Extent, rank int)) {
	lists := make([]interval.List, len(l))
	for i, r := range l {
		lists[i] = r.ext
	}
	next := make([]int, len(l)) // each record's first extent not wholly handed out
	var cur index.Owned         // the run being joined; the empty one before the first joins any at 0 of rank 0
	index.EachWinner(lists, func(run interval.Extent, i int) {
		r, k := &l[i], next[i]
		for r.ext[k].End() <= run.Off {
			k++
		}
		for ; k < len(r.ext) && r.ext[k].Off < run.End(); k++ {
			part, w := r.ext[k].Intersect(run), r.writer
			if r.writers != nil {
				w = r.writers[k]
			}
			if cur.Rank != w || cur.End() != part.Off {
				if !cur.Empty() {
					visit(cur.Extent, cur.Rank)
				}
				cur = index.Owned{Extent: interval.Extent{Off: part.Off}, Rank: w}
			}
			cur.Len += part.Len
			if r.ext[k].End() > run.End() {
				break // the record's next run resumes inside this extent
			}
		}
		next[i] = k
	})
	if !cur.Empty() {
		visit(cur.Extent, cur.Rank)
	}
}

// Owners returns who wrote the named file: its stored bytes as file-ordered
// maximal runs, each owned by the rank whose data the latest write to those
// bytes carried. Bytes never written belong to no run. A file system that
// keeps no records (StoreData off) returns nil.
func (fs *FileSystem) Owners(name string) ([]index.Owned, error) {
	var out []index.Owned
	err := fs.EachOwner(name, func(run interval.Extent, rank int) {
		out = append(out, index.Owned{Extent: run, Rank: rank})
	})
	return out, err
}

// EachOwner streams the runs Owners returns to visit, in file order, without
// building the list: what verification checks MPI atomicity against.
func (fs *FileSystem) EachOwner(name string, visit func(run interval.Extent, rank int)) error {
	f, err := fs.lookup(name, false)
	if err != nil {
		return err
	}
	if f.content != nil {
		f.content.owners(visit)
	}
	return nil
}

// FileSize returns the current size of the named file.
func (fs *FileSystem) FileSize(name string) (int64, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return 0, err
	}
	return f.size, nil
}
