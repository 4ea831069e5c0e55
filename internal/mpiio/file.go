// Package mpiio is the MPI-IO layer of the reproduction: files opened on a
// communicator, file views set from derived datatypes, collective and
// independent writes, and the MPI atomic mode implemented by the
// strategies of package core. Writes carry sizes, not buffers: the file
// system keeps who wrote each byte, never its content.
//
// The API mirrors the MPI-2 calls the paper's Figure 4 code uses:
//
//	MPI_File_open            -> Open
//	MPI_File_set_view        -> File.SetView
//	MPI_File_set_atomicity   -> File.SetAtomicity
//	MPI_File_write_all       -> File.WriteAll
//	MPI_File_sync            -> File.Sync
//	MPI_File_close           -> File.Close
package mpiio

import (
	"errors"
	"fmt"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/fileview"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/obs"
	"atomio/internal/pfs"
)

// ErrClosed is returned for operations on a closed file.
var ErrClosed = errors.New("mpiio: file is closed")

// defaultView is the view every file opens with, MPI's default: a byte
// stream over the whole file. Every handle shares it, and with it its
// stored tile, which Extents lends out and no one writes.
var defaultView = fileview.New(0, datatype.Byte, datatype.NewContiguous(1, datatype.Byte))

// File is an MPI file handle: one per rank, collectively opened. It holds
// the rank's library communicator and file-system client by value, and the
// context its atomic writes hand a strategy, which points at both.
type File struct {
	ctx      core.Context // &comm, &client and the lock manager, recorder and faults
	comm     mpi.Comm     // library-private dup
	client   pfs.Client
	fs       *pfs.FileSystem
	name     string
	view     fileview.View
	pos      int64 // file pointer, in bytes of the view's linear stream
	atomic   bool
	strategy core.Strategy
	closed   bool
}

// Open collectively opens (creating if necessary) the named file on the
// given file system. mgr may be nil for file systems without byte-range
// locking (ENFS); the locking strategy then reports ErrNoLockManager.
// Every rank of comm must call Open together.
func Open(comm *mpi.Comm, fs *pfs.FileSystem, mgr lock.Manager, name string) (*File, error) {
	f := &File{comm: comm.Dup(), fs: fs, name: name, view: defaultView}
	if err := fs.OpenInto(&f.client, name, f.comm.Rank(), f.comm.Clock()); err != nil {
		return nil, err
	}
	f.ctx = core.Context{Comm: &f.comm, Client: &f.client, LockMgr: mgr}
	// ROMIO's default for atomic mode is byte-range locking; platforms
	// without locking default to the best handshaking strategy.
	if mgr != nil {
		f.strategy = core.Locking{}
	} else {
		f.strategy = core.RankOrder{}
	}
	f.comm.Barrier()
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Comm returns the library communicator the file was opened on.
func (f *File) Comm() *mpi.Comm { return &f.comm }

// Client exposes the underlying file-system client (for cache control and
// traffic accounting in experiments).
func (f *File) Client() *pfs.Client { return &f.client }

// SetView installs the (displacement, etype, filetype) triple and resets
// the file pointer, like MPI_File_set_view. Collective.
func (f *File) SetView(disp int64, etype, filetype datatype.Datatype) error {
	if f.closed {
		return ErrClosed
	}
	f.view = fileview.New(disp, etype, filetype)
	f.pos = 0
	f.comm.Barrier()
	return nil
}

// View returns the current file view.
func (f *File) View() fileview.View { return f.view }

// SetAtomicity switches MPI atomic mode on or off, like
// MPI_File_set_atomicity. Collective.
func (f *File) SetAtomicity(on bool) error {
	if f.closed {
		return ErrClosed
	}
	f.atomic = on
	f.comm.Barrier()
	return nil
}

// SetStrategy selects the atomicity implementation used by collective
// writes in atomic mode. Collective; all ranks must pick the same strategy.
func (f *File) SetStrategy(s core.Strategy) error {
	if f.closed {
		return ErrClosed
	}
	if s == nil {
		return fmt.Errorf("mpiio: nil strategy")
	}
	f.strategy = s
	f.comm.Barrier()
	return nil
}

// Strategy returns the current atomicity strategy.
func (f *File) Strategy() core.Strategy { return f.strategy }

// SetFaults attaches a failure-injection plan that atomic collective
// writes consult for writer crashes. Pass nil to disable. Local
// (non-collective): every rank carries the same plan but only its own
// entry applies.
func (f *File) SetFaults(p core.Faults) { f.ctx.Fault = p }

// SetEvents attaches an event recorder for MPI-IO-layer instants this handle
// emits (write-ahead-log appends) and for the phase spans and per-phase
// counters of its atomic collective writes (handshake, lock wait,
// transfer, ...). Pass nil to disable. Local (non-collective).
func (f *File) SetEvents(o *obs.Recorder) { f.ctx.Obs = o }

// Sync flushes this rank's cached data and synchronizes the ranks, like
// MPI_File_sync (collective).
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	f.client.Sync()
	f.comm.Barrier()
	return nil
}

// Close flushes and closes the handle. Collective.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	if err := f.client.Close(); err != nil {
		return err
	}
	f.comm.Barrier()
	f.closed = true
	return nil
}

// checkRequest validates an n-byte request against the view's etype.
func (f *File) checkRequest(n int64) error {
	if f.closed {
		return ErrClosed
	}
	if n < 0 || n%f.view.Etype.Size() != 0 {
		return fmt.Errorf("mpiio: request of %d bytes is not a whole number of etypes (%d bytes)",
			n, f.view.Etype.Size())
	}
	return nil
}
