package pfs

import (
	"cmp"
	"slices"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// content is the storage layer of one file — who wrote each byte:
// stripedStore, in which each simulated I/O server keeps its own write
// records (see striped.go). The pfs tests pin it against a second
// implementation, a flat array of each byte's writer: on any healthy
// configuration the owners are identical.
type content interface {
	write(call *writeCall, e interval.Extent, src source) // e's writer, from src, as the call's next extent
	owners() []index.Owned                                // file-ordered runs of the rank that wrote last
}

// file is one file's server-side state: its size, its content store (nil for
// data-less runs), and the atomic-listio serialization point. Which content
// layout backs it is decided by the file system's configuration.
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

// newFile creates a file backed by the configured store layout.
func (fs *FileSystem) newFile(name string) *file {
	f := &file{name: name}
	if fs.cfg.StoreData {
		f.content = &stripedStore{cfg: fs.cfg, servers: make([][]*record, fs.cfg.Servers)}
	}
	return f
}

// growTo extends the file size to end if it is shorter.
func (f *file) growTo(end int64) {
	f.size = max(f.size, end)
}

// source is whose data a stored extent is: writer's, or — for a
// write-behind flush — that of the logged pieces of the coalesced extent
// that holds it, in write order.
type source struct {
	writer int
	pieces []piece
}

// each calls f with the runs of e in ascending file order and the rank
// whose data each is. Where logged pieces overlap, the run is cut from the
// one written last: a flush stores what its client wrote last.
func (s source) each(e interval.Extent, f func(run interval.Extent, writer int)) {
	if s.pieces == nil {
		f(e, s.writer)
		return
	}
	clip := func(p piece) interval.Extent {
		return e.Intersect(interval.Extent{Off: p.off, Len: p.n})
	}
	emit := func(run interval.Extent, p piece) {
		if !run.Empty() {
			f(run, p.writer)
		}
	}
	ascending := true
	for k := 1; k < len(s.pieces); k++ {
		ascending = ascending && s.pieces[k-1].off+s.pieces[k-1].n <= s.pieces[k].off
	}
	if ascending {
		for _, p := range s.pieces {
			emit(clip(p), p)
		}
		return
	}
	// Later pieces win: walk them newest first, each keeping what no later
	// one covers, then store the runs kept in file order.
	var covered index.Set
	runs := make([]index.Owned, 0, len(s.pieces)) // a run and the piece it is cut from
	for k := len(s.pieces) - 1; k >= 0; k-- {
		run := clip(s.pieces[k])
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
		emit(run.Extent, s.pieces[run.Rank])
	}
}

// writeAt stores e, from src, as the call's next extent and extends the
// file size. A file without a content store only grows; one with a store
// keeps who wrote e.
func (f *file) writeAt(call *writeCall, e interval.Extent, src source) {
	f.growTo(e.End())
	if f.content == nil || e.Empty() {
		return
	}
	f.content.write(call, e, src)
}

// Owners returns who wrote the named file: its stored bytes as file-ordered
// maximal runs, each owned by the rank whose data the latest write to those
// bytes carried. Bytes never written belong to no run. It is what
// verification checks MPI atomicity against. A file system that keeps no
// records (StoreData off) returns nil.
func (fs *FileSystem) Owners(name string) ([]index.Owned, error) {
	f, err := fs.lookup(name, false)
	if err != nil || f.content == nil {
		return nil, err
	}
	return f.content.owners(), nil
}

// FileSize returns the current size of the named file.
func (fs *FileSystem) FileSize(name string) (int64, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return 0, err
	}
	return f.size, nil
}
