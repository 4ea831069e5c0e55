package mpiio

import (
	"atomio/internal/core"
	"atomio/internal/lock"
	"atomio/internal/obs"
	"atomio/internal/pfs"
)

// WriteAll collectively writes n bytes through the file view at the
// current file pointer, like MPI_File_write_all of an n-byte buffer. The
// request carries offsets and lengths only: a file system that stores data
// keeps who wrote each byte, which is what verification checks. In atomic
// mode the configured strategy guarantees MPI atomicity for overlapping
// requests; in non-atomic mode the request goes to the file system as one
// vectored call and the overlapped result is undefined: it interleaves, as
// the paper's Figure 2 shows, where a process's data reaches the servers
// in several calls. Every rank of the communicator must call WriteAll
// together; ranks may write zero bytes.
func (f *File) WriteAll(n int64) error {
	if err := f.checkRequest(n); err != nil {
		return err
	}
	req := f.view.Extents(f.pos, n)
	f.pos += n

	if !f.atomic {
		f.client.Write(pfs.Batch{Ext: req})
		return nil
	}
	// Journal the full request before the strategy runs: if fault
	// injection damages any of these bytes, recovery replays the whole
	// intent. Healthy configurations (no write-ahead log) build nothing.
	if f.fs.Config().WAL {
		if err := f.fs.LogIntent(f.name, f.comm.Rank(), pfs.Batch{Ext: req}); err != nil {
			return err
		}
		if o := f.ctx.Obs; o != nil {
			o.Emit(obs.Event{
				T: f.comm.Clock().Now(), Actor: f.comm.Rank(), Layer: obs.LayerPFS,
				Kind: obs.KindWALAppend, Peer: -1, Size: n,
			})
			o.Count(f.comm.Rank(), obs.MetricWALAppends, 1)
		}
	}
	return f.strategy.WriteAll(&f.ctx, req)
}

// Write performs an independent (non-collective) write of n bytes through
// the view at the current file pointer, like MPI_File_write. In atomic mode
// only locking can guarantee atomicity — the handshaking strategies need to
// know the participating processes, which only collective calls provide
// (§5: "File locking seems to be the only way to ensure atomic results in
// non-collective I/O calls in MPI") — so an atomic independent write on a
// lockless file system returns core.ErrNoLockManager.
func (f *File) Write(n int64) error {
	if err := f.checkRequest(n); err != nil {
		return err
	}
	req := f.view.Extents(f.pos, n)
	f.pos += n

	if !f.atomic {
		f.client.Write(pfs.Batch{Ext: req})
		return nil
	}
	mgr := f.ctx.LockMgr
	if mgr == nil {
		return core.ErrNoLockManager
	}
	clock := f.comm.Clock()
	span := req.Bounds()
	if span.Len == 0 {
		return nil
	}
	grant := mgr.Lock(f.comm.Rank(), span, lock.Exclusive, clock.Now())
	clock.AdvanceTo(grant)
	f.client.Write(pfs.Batch{Ext: req})
	f.client.Sync()
	clock.AdvanceTo(mgr.Unlock(f.comm.Rank(), span, clock.Now()))
	return nil
}
