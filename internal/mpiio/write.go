package mpiio

import (
	"bytes"

	"atomio/internal/core"
	"atomio/internal/lock"
	"atomio/internal/obs"
	"atomio/internal/pfs"
)

// WriteAll collectively writes buf through the file view at the current
// file pointer, like MPI_File_write_all. In atomic mode the configured
// strategy guarantees MPI atomicity for overlapping requests; in non-atomic
// mode each contiguous file segment is issued as an individual request and
// the overlapped result is undefined (it can interleave, as the paper's
// Figure 2 shows). Every rank of the communicator must call WriteAll
// together; ranks may pass empty buffers.
func (f *File) WriteAll(buf []byte) error {
	return f.writeAll(buf, int64(len(buf)))
}

// WriteAllSized is the timing-only WriteAll: it collectively writes n bytes
// whose content nobody will read, charging exactly what WriteAll charges
// for an n-byte buffer while carrying only offsets and lengths down to the
// servers. A file system that stores data keeps who wrote them, which is
// what verification checks; reading them back fails.
func (f *File) WriteAllSized(n int64) error {
	return f.writeAll(nil, n)
}

// writeAll is the collective write of n bytes: buf holds them, or is nil
// for a timing-only request.
func (f *File) writeAll(buf []byte, n int64) error {
	if err := f.checkRequest(n); err != nil {
		return err
	}
	req := f.view.Extents(f.pos, n)
	f.pos += n

	if !f.atomic {
		f.client.Write(pfs.Lend(f.lendable(buf), req))
		return nil
	}
	// Journal the full request before the strategy runs: if fault
	// injection damages any of these bytes, recovery replays the whole
	// intent. Healthy configurations (no write-ahead log) build nothing.
	if f.fs.Config().WAL {
		if err := f.fs.LogIntent(f.name, f.comm.Rank(), pfs.Lend(buf, req)); err != nil {
			return err
		}
		if o := f.events; o != nil {
			o.Emit(obs.Event{
				T: f.comm.Clock().Now(), Actor: f.comm.Rank(), Layer: obs.LayerPFS,
				Kind: obs.KindWALAppend, Peer: -1, Size: n,
			})
			o.Count(f.comm.Rank(), obs.MetricWALAppends, 1)
		}
	}
	ctx := &core.Context{Comm: f.comm, Client: f.client, LockMgr: f.mgr, Obs: f.events, Fault: f.faults}
	return f.strategy.WriteAll(ctx, buf, req)
}

// lendable returns the bytes a non-atomic write hands the client. A client
// that borrows keeps what it is given until its next Sync (see pfs.Batch),
// and a non-atomic write returns without one, while MPI lets the application
// reuse buf as soon as a blocking write returns: such a client gets a
// private copy. Every atomic strategy syncs before it returns and lends buf
// itself.
func (f *File) lendable(buf []byte) []byte {
	if f.client.Borrows() {
		return bytes.Clone(buf)
	}
	return buf
}

// Write performs an independent (non-collective) write through the view at
// the current file pointer, like MPI_File_write. In atomic mode only
// locking can guarantee atomicity — the handshaking strategies need to know
// the participating processes, which only collective calls provide (§5:
// "File locking seems to be the only way to ensure atomic results in
// non-collective I/O calls in MPI") — so an atomic independent write on a
// lockless file system returns core.ErrNoLockManager.
func (f *File) Write(buf []byte) error {
	if err := f.checkRequest(int64(len(buf))); err != nil {
		return err
	}
	req := f.view.Extents(f.pos, int64(len(buf)))
	f.pos += int64(len(buf))

	if !f.atomic {
		f.client.Write(pfs.Lend(f.lendable(buf), req))
		return nil
	}
	if f.mgr == nil {
		return core.ErrNoLockManager
	}
	clock := f.comm.Clock()
	span := req.Span()
	if span.Len == 0 {
		return nil
	}
	grant := f.mgr.Lock(f.comm.Rank(), span, lock.Exclusive, clock.Now())
	clock.AdvanceTo(grant)
	f.client.Write(pfs.Lend(buf, req))
	f.client.Sync()
	clock.AdvanceTo(f.mgr.Unlock(f.comm.Rank(), span, clock.Now()))
	return nil
}

// ReadAll collectively reads into buf through the file view at the current
// file pointer, like MPI_File_read_all. In atomic mode on a locking file
// system a shared lock covers the request span and the cache is
// invalidated first, so the read returns committed server data.
func (f *File) ReadAll(buf []byte) error {
	return f.read(buf)
}

// Read performs an independent read at the current file pointer.
func (f *File) Read(buf []byte) error {
	return f.read(buf)
}

func (f *File) read(buf []byte) error {
	if err := f.checkRequest(int64(len(buf))); err != nil {
		return err
	}
	req := f.view.Extents(f.pos, int64(len(buf)))
	f.pos += int64(len(buf))

	b := pfs.Lend(buf, req)
	if !f.atomic {
		f.client.Read(b)
		return nil
	}
	// Atomic reads must observe committed data, not stale cache (§3).
	f.client.Invalidate()
	if f.mgr != nil {
		clock := f.comm.Clock()
		span := req.Span()
		if span.Len == 0 {
			return nil
		}
		grant := f.mgr.Lock(f.comm.Rank(), span, lock.Shared, clock.Now())
		clock.AdvanceTo(grant)
		f.client.Read(b)
		clock.AdvanceTo(f.mgr.Unlock(f.comm.Rank(), span, clock.Now()))
		return nil
	}
	f.client.Read(b)
	return nil
}
