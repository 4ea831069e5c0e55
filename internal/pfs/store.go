package pfs

import (
	"cmp"
	"fmt"
	"slices"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// content is the storage layer of one file — who wrote each byte, and its
// bytes where the writes carried them: stripedStore, in which each
// simulated I/O server keeps its own write records (see striped.go).
// The pfs tests pin it against a second implementation, a flat image every
// server writes into: on any healthy configuration reads, written extents,
// owners and snapshots are identical.
type content interface {
	write(call *writeCall, e interval.Extent, src source) // e's writer and any bytes, from src, as the call's next extent
	read(off int64, buf []byte)                           // bytes never written read as zero; stored without payload, panic
	extents() interval.List                               // every byte range ever stored, canonical
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

// source is where a stored extent's bytes come from: a slice that is
// exactly them (nil when the batch carries none), written as writer's, or —
// for a write-behind flush — the logged pieces of the coalesced extent that
// holds it, in write order.
type source struct {
	data   []byte
	writer int
	pieces []piece
}

// each calls f with the runs of e in ascending file order, each run's bytes
// (nil when it has none) and the rank whose data it is. Where logged pieces
// overlap, the run is cut from the one written last: a flush stores what its
// client would read.
func (s source) each(e interval.Extent, f func(run interval.Extent, data []byte, writer int)) {
	if s.pieces == nil {
		f(e, s.data, s.writer)
		return
	}
	clip := func(p piece) interval.Extent {
		return e.Intersect(interval.Extent{Off: p.off, Len: p.n})
	}
	emit := func(run interval.Extent, p piece) {
		if run.Empty() {
			return
		}
		var data []byte
		if p.data != nil {
			data = p.data[run.Off-p.off : run.End()-p.off]
		}
		f(run, data, p.writer)
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
// file size. A data-less file only grows; a file with a content store keeps
// who wrote e, and its bytes when src carries them — exactly e.Len of them.
func (f *file) writeAt(call *writeCall, e interval.Extent, src source) {
	f.growTo(e.End())
	if f.content == nil || e.Empty() {
		return
	}
	if src.data != nil && int64(len(src.data)) != e.Len {
		panic(fmt.Sprintf("pfs: extent %v written to %q with %d bytes", e, f.name, len(src.data)))
	}
	f.content.write(call, e, src)
}

// readAt fills buf from off; bytes never written read as zero, and bytes
// stored without their payload panic: no read ever invents them.
func (f *file) readAt(off int64, buf []byte) {
	if f.content == nil {
		clear(buf)
		return
	}
	f.content.read(off, buf)
}

// Snapshot copies the bytes of extent e out of the named file; offsets never
// written read as zero. It panics, naming the range, if e reaches bytes
// written without their payload.
func (fs *FileSystem) Snapshot(name string, e interval.Extent) ([]byte, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, e.Len)
	f.readAt(e.Off, buf)
	return buf, nil
}

// WrittenExtents returns the canonical list of byte ranges ever written to
// the named file — the union of every server's write records. Data-less
// runs (StoreData off) track no extents and return an empty list.
func (fs *FileSystem) WrittenExtents(name string) (interval.List, error) {
	f, err := fs.lookup(name, false)
	if err != nil || f.content == nil {
		return nil, err
	}
	return f.content.extents(), nil
}

// Owners returns who wrote the named file: its stored bytes as file-ordered
// maximal runs, each owned by the rank whose data the latest write to those
// bytes carried. Bytes never written belong to no run. It is what
// verification checks MPI atomicity against. Data-less runs return nil.
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
