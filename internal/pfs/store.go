package pfs

import (
	"fmt"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// storeChunk is the allocation granularity of the sparse file stores.
const storeChunk = 1 << 16

// content is the byte-storage layer of one file: stripedStore, the
// per-server subsystem in which each simulated I/O server owns its own
// chunk store and written-extent index (see striped.go). The pfs tests pin
// it against a second implementation, the pre-striping single store every
// server writes into: on any healthy configuration reads, written extents
// and snapshots are identical.
//
// rank identifies the writing client for affinity-mode storage routing.
type content interface {
	// write stores the bytes of e, which src supplies, on behalf of the
	// given client rank.
	write(e interval.Extent, src source, rank int)
	// read fills buf from off; bytes never written read as zero.
	read(off int64, buf []byte)
	// extents returns the canonical list of byte ranges ever stored,
	// merged across servers.
	extents() interval.List
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
		f.content = newStripedStore(fs.cfg)
	}
	return f
}

// growTo extends the file size to end if it is shorter.
func (f *file) growTo(end int64) {
	f.size = max(f.size, end)
}

// source is where a stored extent's bytes come from: a slice that is
// exactly them, or — for a write-behind flush — the logged pieces of the
// coalesced extent that holds it, in write order.
type source struct {
	data   []byte
	pieces []piece
}

// each calls f with the runs of e's bytes in the order they are to be
// copied: a later run overwrites an earlier one where they overlap.
func (s source) each(e interval.Extent, f func(off int64, data []byte)) {
	if s.pieces == nil {
		f(e.Off, s.data)
		return
	}
	for _, p := range s.pieces {
		if ov := e.Intersect(interval.Extent{Off: p.off, Len: int64(len(p.data))}); !ov.Empty() {
			f(ov.Off, p.data[ov.Off-p.off:ov.End()-p.off])
		}
	}
}

// writeAt stores e's bytes from src on behalf of rank and extends the file
// size. A data-less file only grows; a file with a content store needs the
// bytes, exactly e.Len of them.
func (f *file) writeAt(e interval.Extent, src source, rank int) {
	f.growTo(e.End())
	if f.content == nil || e.Empty() {
		return
	}
	switch {
	case src.data == nil && src.pieces == nil:
		panic(fmt.Sprintf("pfs: payload-less extent %v written to %q, which stores data", e, f.name))
	case src.pieces == nil && int64(len(src.data)) != e.Len:
		panic(fmt.Sprintf("pfs: extent %v written to %q with %d bytes", e, f.name, len(src.data)))
	}
	f.content.write(e, src, rank)
}

// readAt fills buf from off; bytes never written read as zero.
func (f *file) readAt(off int64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	if f.content == nil {
		clear(buf)
		return
	}
	f.content.read(off, buf)
}

// writtenExtents returns the canonical list of byte ranges ever stored.
// Data-less files track no extents.
func (f *file) writtenExtents() interval.List {
	if f.content == nil {
		return nil
	}
	return f.content.extents()
}

// chunkWrite copies data into a sparse chunk map at off, allocating chunks
// on demand.
func chunkWrite(chunks map[int64][]byte, off int64, data []byte) {
	for len(data) > 0 {
		ci := off / storeChunk
		co := off % storeChunk
		n := int64(len(data))
		if n > storeChunk-co {
			n = storeChunk - co
		}
		c, ok := chunks[ci]
		if !ok {
			c = make([]byte, storeChunk)
			chunks[ci] = c
		}
		copy(c[co:co+n], data[:n])
		off += n
		data = data[n:]
	}
}

// chunkRead fills buf from the chunk map at off. Every byte of the request
// must have been written (its chunk allocated).
func chunkRead(chunks map[int64][]byte, off int64, buf []byte) {
	for len(buf) > 0 {
		ci := off / storeChunk
		co := off % storeChunk
		n := int64(len(buf))
		if n > storeChunk-co {
			n = storeChunk - co
		}
		copy(buf[:n], chunks[ci][co:co+n])
		off += n
		buf = buf[n:]
	}
}

// coveredRead serves a read from a (written set, chunk map) pair: written
// parts come from chunks, holes are zero-filled without consulting the
// chunk map.
func coveredRead(written *index.Set, chunks map[int64][]byte, off int64, buf []byte) {
	req := interval.Extent{Off: off, Len: int64(len(buf))}
	written.Visit(req, func(part interval.Extent, covered bool) bool {
		dst := buf[part.Off-off : part.End()-off]
		if covered {
			chunkRead(chunks, part.Off, dst)
		} else {
			clear(dst)
		}
		return true
	})
}

// Snapshot copies the bytes of extent e out of the named file; offsets never
// written read as zero. It is the verification hook used by tests and the
// atomicity checker.
func (fs *FileSystem) Snapshot(name string, e interval.Extent) ([]byte, error) {
	buf := make([]byte, e.Len)
	if err := fs.SnapshotInto(name, e.Off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// SnapshotInto is Snapshot into the caller's buffer: it fills buf with the
// named file's bytes from off on, for a reader that walks a file through
// one buffer.
func (fs *FileSystem) SnapshotInto(name string, off int64, buf []byte) error {
	f, err := fs.lookup(name, false)
	if err != nil {
		return err
	}
	f.readAt(off, buf)
	return nil
}

// WrittenExtents returns the canonical list of byte ranges ever written to
// the named file — the union of the per-server dirty-extent indexes (or the
// shared store's single index). Data-less runs (StoreData off) track no
// extents and return an empty list.
func (fs *FileSystem) WrittenExtents(name string) (interval.List, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return nil, err
	}
	return f.writtenExtents(), nil
}

// FileSize returns the current size of the named file.
func (fs *FileSystem) FileSize(name string) (int64, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return 0, err
	}
	return f.size, nil
}
